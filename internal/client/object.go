package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"unicode/utf8"
)

// member is a key and where its value goes: an *int, *float64, *bool or *string.
type member struct {
	key string
	dst any
}

var errShape = errors.New("client: response body is not the expected object")

// decodeObject decodes body into ms without encoding/json's reflection,
// doing what json.Unmarshal into the equivalent tagged struct does
// (FuzzDecodeObjectMatchesUnmarshal holds it to that): keys match
// case-folded and unquoted, unknown keys are skipped, a later duplicate
// wins, and null changes nothing. No decoded value aliases body.
func decodeObject(body []byte, ms ...member) error {
	if !json.Valid(body) {
		return json.Unmarshal(body, new(struct{})) // its syntax error
	}
	i := skipSpace(body, 0)
	if body[i] == 'n' {
		return nil
	} else if body[i] != '{' {
		return errShape
	}
	// body is valid, so each step finds what the grammar puts there.
	for i = skipSpace(body, i+1); body[i] == '"'; i = skipSpace(body, i+1) {
		end := valueEnd(body, i)
		key := body[i+1 : end-1]
		if bytes.IndexByte(key, '\\') >= 0 {
			var k string
			_ = json.Unmarshal(body[i:end], &k)
			key = []byte(k)
		}
		i = skipSpace(body, skipSpace(body, end)+1) // past the colon
		end = valueEnd(body, i)
		for _, m := range ms {
			if err := m.set(key, body[i:end]); err != nil {
				return err
			}
		}
		if i = skipSpace(body, end); body[i] == '}' {
			break
		}
	}
	return nil
}

// set stores the value v of member key, if that is m's key, as
// json.Unmarshal stores it into a field of m.dst's type.
func (m member) set(key, v []byte) (err error) {
	if !bytes.EqualFold(key, []byte(m.key)) || v[0] == 'n' {
		return nil
	}
	switch p := m.dst.(type) {
	case *int:
		*p, err = strconv.Atoi(string(v))
	case *float64:
		*p, err = strconv.ParseFloat(string(v), 64)
	case *bool:
		if v[0] != 't' && v[0] != 'f' {
			return errShape
		}
		*p = v[0] == 't'
	case *string:
		if v[0] != '"' {
			return errShape
		}
		if s := v[1 : len(v)-1]; bytes.IndexByte(s, '\\') < 0 && utf8.Valid(s) {
			*p = string(s)
			return nil
		}
		var s string // a local of its own, so that p does not escape
		err = json.Unmarshal(v, &s)
		*p = s
	}
	return err
}

func skipSpace(b []byte, i int) int { return len(b) - len(bytes.TrimLeft(b[i:], " \t\n\r")) }

// valueEnd returns the index just past the valid JSON value at b[i].
func valueEnd(b []byte, i int) int {
	if c := b[i]; c != '"' && c != '{' && c != '[' { // a number or literal
		return len(b) - len(bytes.TrimLeft(b[i:], "+-.0123456789Eaeflnrstu"))
	}
	for depth := 0; ; i++ {
		switch b[i] {
		case '"':
			for i++; b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		}
		if depth == 0 {
			return i + 1
		}
	}
}
