package main

import (
	"bytes"
	"flag"
	"io"
	"sort"
	"strings"
	"testing"
)

// Every test here parses command lines only: none starts a network,
// listener or goroutine.

// wantFlags pins each subcommand's flag set: exactly the flags its run
// reads.
var wantFlags = map[string]string{
	"fig14":       "ds-gas epochs faults metrics-out nodes pprof shard-gas trace-out txs workloads",
	"strategies":  "ds-gas epochs faults metrics-out nodes pprof shard-gas trace-out txs",
	"overheads":   "metrics-out pprof trace-out",
	"workloads":   "",
	"chain":       "ds-gas epochs metrics-out pprof shard-gas snapshot-every state-dir trace-out txs workload",
	"serve":       "block-interval faults hub lookups pprof rpc shards snapshot-every state-dir workload",
	"node hub":    "hub pprof",
	"node ds":     "block-interval hub pprof shards snapshot-every state-dir workload",
	"node shard":  "faults hub pprof shards snapshot-every state-dir workload",
	"node lookup": "hub pprof rpc",
	"hammer":      "n pprof shards workers workload",
	"head":        "",
}

// The parent's flags: a subcommand that does not define one refuses it.
const parentFlags = "block-interval chain-info ds-gas epochs faults hammer hammer-n hammer-workers hub list lookups metrics-out node nodes overheads pprof rpc-shards rpc-workload serve serve-tcp shard-gas snapshot-every state-dir strategies trace-out txs workloads"

// valid returns a command line of cmd that parses: its positional
// argument and its required flag, if any.
func valid(cmd *command) []string {
	args := strings.Fields(cmd.name)
	switch cmd.args {
	case "<i>":
		args = append(args, "0")
	case "<url>", "<url>[,<url>]":
		args = append(args, "http://127.0.0.1:1")
	}
	if cmd.required != "" {
		args = append(args, "-"+cmd.required, "x")
	}
	return args
}

func definedFlags(cmd *command) []string {
	var names []string
	cmd.flagSet(&config{}, io.Discard).VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	return names
}

func TestSubcommandFlagSets(t *testing.T) {
	if len(commands) != len(wantFlags) {
		t.Errorf("%d subcommands, want %d", len(commands), len(wantFlags))
	}
	for i := range commands {
		cmd := &commands[i]
		if got := strings.Join(definedFlags(cmd), " "); got != wantFlags[cmd.name] {
			t.Errorf("%s defines %q, want %q", cmd.name, got, wantFlags[cmd.name])
		}
		if _, _, err := parse(valid(cmd), io.Discard); err != nil {
			t.Errorf("%v: %v", valid(cmd), err)
		}
	}
}

// refused parses args and requires the flag package's refusal of flag.
func refused(t *testing.T, flag string, args ...string) {
	t.Helper()
	var out bytes.Buffer
	if _, _, err := parse(args, &out); err == nil {
		t.Errorf("%q parsed; want -%s refused", args, flag)
	} else if want := "flag provided but not defined: -" + flag; !strings.Contains(out.String(), want) {
		t.Errorf("%q: %q, want %q", args, out.String(), want)
	}
}

func TestSubcommandsRefuseFlagsTheyDoNotRead(t *testing.T) {
	all := map[string]bool{}
	for _, name := range strings.Fields(parentFlags) {
		all[name] = true
	}
	for _, names := range wantFlags {
		for _, name := range strings.Fields(names) {
			all[name] = true
		}
	}
	for i := range commands {
		cmd := &commands[i]
		defined := map[string]bool{}
		for _, name := range definedFlags(cmd) {
			defined[name] = true
		}
		for name := range all {
			if !defined[name] {
				refused(t, name, append(valid(cmd), "-"+name, "1")...)
			}
		}
	}

	const url, hub, plan = "http://127.0.0.1:18545", "127.0.0.1:19100", "7:crash=0.1"
	// Accepted and dropped by the parent's single flag namespace.
	refused(t, "epochs", "workloads", "-epochs", "3")
	refused(t, "faults", "head", url, "-faults", plan, "-lookups", "4")
	refused(t, "lookups", "head", url, "-lookups", "4")
	refused(t, "state-dir", "hammer", url, "-state-dir", "/tmp/x", "-epochs", "9")
	refused(t, "epochs", "hammer", url, "-epochs", "9")
	refused(t, "block-interval", "node", "shard", "0", "-hub", hub, "-block-interval", "50ms")
	// Refused by name by the parent.
	for _, role := range [][]string{{"node", "hub"}, {"node", "ds"}, {"node", "lookup"}, {"node", "lookup", "1"}, {"hammer", url}} {
		refused(t, "trace-out", append(role, "-trace-out", "t.jsonl")...)
		refused(t, "metrics-out", append(role, "-metrics-out", "m.json")...)
		refused(t, "faults", append(role, "-faults", plan)...)
	}
	refused(t, "trace-out", "node", "shard", "1", "-hub", hub, "-trace-out", "t.jsonl")
	refused(t, "metrics-out", "node", "shard", "1", "-hub", hub, "-metrics-out", "m.json")
	refused(t, "trace-out", "serve", "-rpc", "127.0.0.1:18545", "-trace-out", "t.jsonl")
	refused(t, "metrics-out", "serve", "-rpc", "127.0.0.1:18545", "-metrics-out", "m.json")
	refused(t, "faults", "chain", "-state-dir", "/tmp/x", "-workload", "FT transfer", "-faults", plan)
	refused(t, "nodes", "chain", "-state-dir", "/tmp/x", "-workload", "FT transfer", "-nodes", "7")
	refused(t, "faults", "overheads", "-faults", plan)
}

func TestValidateRefusesOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"shards", []string{"hammer", "http://127.0.0.1:1", "-shards", "0"}},
		{"shards", []string{"serve", "-rpc", "x", "-shards", "-2"}},
		{"shards", []string{"node", "ds", "-hub", "x", "-shards", "0"}},
		{"nodes", []string{"fig14", "-nodes", "0"}},
		{"txs", []string{"fig14", "-txs", "-5"}},
		{"txs", []string{"chain", "-state-dir", "x", "-txs", "-1"}},
		{"epochs", []string{"strategies", "-epochs", "-1"}},
		{"snapshot-every", []string{"chain", "-state-dir", "x", "-snapshot-every", "-3"}},
		{"n", []string{"hammer", "http://127.0.0.1:1", "-n", "0"}},
		{"workers", []string{"hammer", "-workers", "0", "http://127.0.0.1:1"}},
		{"lookups", []string{"serve", "-rpc", "x", "-lookups", "0"}},
		{"block-interval", []string{"serve", "-rpc", "x", "-block-interval", "0"}},
		{"block-interval", []string{"node", "ds", "-hub", "x", "-block-interval", "-1s"}},
	} {
		var out bytes.Buffer
		if _, _, err := parse(tc.args, &out); err == nil || !strings.Contains(err.Error(), "-"+tc.flag+" ") {
			t.Errorf("%q: %v, want an error naming -%s", tc.args, err, tc.flag)
		}
	}
	// The lower bounds themselves are accepted.
	for _, args := range [][]string{
		{"chain", "-state-dir", "x", "-epochs", "0", "-txs", "0", "-snapshot-every", "0"},
		{"hammer", "http://127.0.0.1:1", "-shards", "1", "-n", "1", "-workers", "1"},
		{"fig14", "-nodes", "1"},
		{"serve", "-rpc", "x", "-lookups", "1", "-block-interval", "1ns"},
	} {
		if _, _, err := parse(args, io.Discard); err != nil {
			t.Errorf("%q: %v", args, err)
		}
	}
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"node"}, {"node", "replica"}, {"-list"}} {
		var out bytes.Buffer
		if code := run(args, &out); code != 2 {
			t.Errorf("%q exits %d, want 2", args, code)
		}
		for i := range commands {
			if !strings.Contains(out.String(), commands[i].name) {
				t.Errorf("%q: usage %q lacks %s", args, out.String(), commands[i].name)
			}
		}
	}
	// Wrong positional arguments and missing required flags are refused
	// too, before anything runs.
	for _, args := range [][]string{
		{"hammer"}, {"head", "a", "b"}, {"fig14", "extra"}, {"node", "shard", "-hub", "x"},
		{"chain"}, {"serve"}, {"node", "ds"}, {"fig14", "-faults", "nonsense"},
	} {
		if code := run(args, io.Discard); code != 2 {
			t.Errorf("%q exits %d, want 2", args, code)
		}
	}
	if code := run([]string{"fig14", "-h"}, io.Discard); code != 0 {
		t.Errorf("fig14 -h exits %d, want 0", code)
	}
}
