package typecheck_test

import (
	"strings"
	"testing"

	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/parser"
	"cosplit/internal/scilla/typecheck"
)

func check(t *testing.T, src string) (*typecheck.Checked, error) {
	t.Helper()
	m, err := parser.ParseModule(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return typecheck.Check(m)
}

func mustCheck(t *testing.T, src string) *typecheck.Checked {
	t.Helper()
	chk, err := check(t, src)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return chk
}

func wantErr(t *testing.T, src, fragment string) {
	t.Helper()
	_, err := check(t, src)
	if err == nil {
		t.Fatalf("expected type error containing %q, got none", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Errorf("error %q does not mention %q", err, fragment)
	}
}

const header = "scilla_version 0\n"

func TestWellTypedBasics(t *testing.T) {
	chk := mustCheck(t, header+`
library L
let two = Uint128 2
let dbl = fun (x : Uint128) => builtin add x x

contract C (owner : ByStr20)
field total : Uint128 = dbl two
field names : Map ByStr20 String = Emp ByStr20 String

transition Set (name : String)
  names[_sender] := name;
  v = dbl two;
  total := v
end
`)
	if got := chk.FieldTypes["total"]; !got.Equal(ast.TyUint128) {
		t.Errorf("total type = %s", got)
	}
	if got := chk.LibTypes["dbl"]; got.String() != "Uint128 -> Uint128" {
		t.Errorf("dbl type = %s", got)
	}
}

func TestFieldInitTypeMismatch(t *testing.T) {
	wantErr(t, header+`
contract C ()
field x : Uint128 = Uint32 1
`, "declared")
}

func TestUnknownField(t *testing.T) {
	wantErr(t, header+`
contract C ()
transition T ()
  x <- nope
end
`, "unknown field")
}

func TestStoreTypeMismatch(t *testing.T) {
	wantErr(t, header+`
contract C ()
field x : Uint128 = Uint128 0
transition T (s : String)
  x := s
end
`, "cannot store")
}

func TestMapKeyTypeMismatch(t *testing.T) {
	wantErr(t, header+`
contract C ()
field m : Map ByStr20 Uint128 = Emp ByStr20 Uint128
transition T (k : String, v : Uint128)
  m[k] := v
end
`, "map key")
}

// TestMapKeyTypeRenderable: a map key type is one whose values have a
// canonical key form: an integer, String, a byte string or BNum.
func TestMapKeyTypeRenderable(t *testing.T) {
	for _, kt := range []string{"Unit", "(Option Uint128)"} {
		wantErr(t, header+`
contract C ()
field m : Map `+kt+` Uint128 = Emp `+kt+` Uint128
`, "map key type")
	}
	mustCheck(t, header+`
contract C ()
field m : Map BNum (Map ByStr Uint128) = Emp BNum (Map ByStr Uint128)
`)
}

func TestMapDepthChecked(t *testing.T) {
	wantErr(t, header+`
contract C ()
field m : Map ByStr20 Uint128 = Emp ByStr20 Uint128
transition T (a : ByStr20, b : ByStr20, v : Uint128)
  m[a][b] := v
end
`, "too many keys")
}

func TestBuiltinArgMismatch(t *testing.T) {
	wantErr(t, header+`
contract C ()
transition T (a : Uint128, b : Uint32)
  x = builtin add a b
end
`, "not applicable")
}

func TestMatchArmTypesMustAgree(t *testing.T) {
	wantErr(t, header+`
contract C ()
transition T (o : Option Uint128)
  x = match o with
      | Some v => v
      | None => "nope"
      end
end
`, "differing types")
}

func TestPatternConstructorChecked(t *testing.T) {
	wantErr(t, header+`
contract C ()
transition T (o : Option Uint128)
  match o with
  | Cons h t => accept
  | None => accept
  end
end
`, "no constructor")
}

func TestSendRequiresMessageList(t *testing.T) {
	wantErr(t, header+`
contract C ()
transition T (s : String)
  send s
end
`, "send expects")
}

func TestMessageFieldTypes(t *testing.T) {
	wantErr(t, header+`
contract C ()
transition T (x : Uint32)
  m = {_tag : "T"; _recipient : _sender; _amount : x}
end
`, "_amount must be")
}

func TestFunctionNotStorable(t *testing.T) {
	wantErr(t, header+`
contract C ()
field f : Uint128 -> Uint128 = fun (x : Uint128) => x
`, "not storable")
}

func TestCustomADT(t *testing.T) {
	chk := mustCheck(t, header+`
library L
type Shape =
| Circle of Uint128
| Square of Uint128
| Point

contract C ()
field shapes : Map ByStr20 Shape = Emp ByStr20 Shape

transition Put (r : Uint128)
  s = Circle r;
  shapes[_sender] := s
end

transition Area (owner : ByStr20)
  s_opt <- shapes[owner];
  match s_opt with
  | Some s =>
    a = match s with
        | Circle r => builtin mul r r
        | Square side => builtin mul side side
        | Point => Uint128 0
        end;
    e = {_eventname : "Area"; area : a};
    event e
  | None =>
    throw
  end
end
`)
	if chk.Registry.ADT("Shape") == nil {
		t.Error("Shape not registered")
	}
}

func TestDuplicateConstructorRejected(t *testing.T) {
	wantErr(t, header+`
library L
type T1 =
| Make of Uint128
type T2 =
| Make of String

contract C ()
`, "already defined")
}

func TestDuplicateTransitionRejected(t *testing.T) {
	wantErr(t, header+`
contract C ()
transition T ()
  accept
end
transition T ()
  accept
end
`, "duplicate transition")
}

func TestPolymorphicNatives(t *testing.T) {
	mustCheck(t, header+`
library L
let sum_list =
  fun (xs : List Uint128) =>
    let folder = @list_foldl Uint128 Uint128 in
    let add_one = fun (acc : Uint128) => fun (x : Uint128) => builtin add acc x in
    let zero = Uint128 0 in
    folder add_one zero xs

contract C ()
field total : Uint128 = Uint128 0

transition Sum (xs : List Uint128)
  s = sum_list xs;
  total := s
end
`)
}

func TestBalanceImplicitField(t *testing.T) {
	mustCheck(t, header+`
contract C ()
transition T ()
  bal <- _balance;
  two = Uint128 2;
  half = builtin div bal two;
  e = {_eventname : "Half"; v : half};
  event e
end
`)
}

func TestImplicitParams(t *testing.T) {
	chk := mustCheck(t, header+`
contract C ()
field last : ByStr20 = 0x0000000000000000000000000000000000000000
transition T ()
  last := _sender
end
`)
	if chk.Module.Contract.Transitions[0].Name != "T" {
		t.Error("transition lost")
	}
}
