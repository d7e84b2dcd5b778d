package rpc

import (
	"bytes"
	"encoding/json"
)

// Both ends of the front door write and read the JSON-RPC envelope by
// hand, byte for byte as encoding/json would, and leave to
// encoding/json only what falls outside these fixed shapes. A string
// of plain bytes (see plain) is its own JSON encoding, so it is copied
// as it is; any other goes through encoding/json, which escapes,
// replaces invalid UTF-8 and decodes escapes as it always has.

// plain reports whether s is printable ASCII other than `"`, `\`, `<`,
// `>` and `&`: the bytes encoding/json writes inside a string as they
// are, with HTML escaping on.
func plain[T ~string | ~[]byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendString appends s as json.Marshal encodes it.
func appendString(b []byte, s string) []byte {
	if plain(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	enc, _ := json.Marshal(s) // a string always encodes
	return append(b, enc...)
}

// appendRawJSON appends the JSON value v (nil for none) as
// encoding/json writes a json.RawMessage: null for none, otherwise
// compacted, with <, > and & escaped.
func appendRawJSON(b []byte, v json.RawMessage) []byte {
	if len(v) > 0 && plain(v) && bytes.IndexByte(v, ' ') < 0 {
		return append(b, v...) // no string inside, no space to drop
	}
	enc, _ := json.Marshal(v) // v was read as valid JSON
	return append(b, enc...)
}

// stringParam returns the string the JSON value raw holds, as
// json.Unmarshal into a string would (null is ""). The returned bytes
// may be raw's own.
func stringParam(raw json.RawMessage) ([]byte, error) {
	if n := len(raw); n >= 2 && raw[0] == '"' && raw[n-1] == '"' && plain(raw[1:n-1]) {
		return raw[1 : n-1], nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, err
	}
	return []byte(s), nil
}
