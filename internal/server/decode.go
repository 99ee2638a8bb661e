package server

import (
	"errors"
	"fmt"
	"unicode/utf16"
	"unicode/utf8"

	"sprofile"
)

// The event wire form is one JSON object with exactly two string fields,
//
//	{"object": "<key>", "action": "add" | "remove" | "+" | "-" | "1" | "-1"}
//
// in either order. eventDecoder parses it by hand for every ingest route
// (NDJSON lines, the single-object body and the array body) instead of
// through encoding/json, whose reflection and per-value decoder cost an
// order of magnitude more than the profile update itself. It is also
// stricter than encoding/json, which reads only the first value of its
// input: anything but whitespace after the closing brace, an unknown,
// duplicate or not exactly lower-case field name, a non-string value, a raw
// control character, a lone surrogate escape or an invalid UTF-8 byte is a
// syntax error. A missing field decodes as "" and is then refused by
// checkObject or parseAction, as before.
type eventDecoder struct {
	// buf holds the unescaped copies of the strings of the event being
	// decoded; strings without a backslash are sliced from the input.
	buf []byte
}

// errMalformed is the class of every body the ingest decoder, or
// strictDecode on the admin and query routes, refuses as malformed: a
// request-level 400 bad_request that never reaches the profile.
var errMalformed = errors.New("malformed JSON")

// maxPooledUnescape caps the unescape buffer kept across requests, so one
// huge escaped key does not pin its buffer in the pool.
const maxPooledUnescape = 64 << 10

// event decodes the event object at data[i:], after optional whitespace,
// and returns the offset just past its closing brace. A well-formed event
// the profile refuses (empty or oversized object, unknown action) is
// returned as invalid with a nil err, so an array decode can keep checking
// the syntax of the elements after it.
func (d *eventDecoder) event(data []byte, i int) (ev sprofile.KeyedTuple[string], next int, invalid, err error) {
	i = skipSpace(data, i)
	if i >= len(data) || data[i] != '{' {
		return ev, i, nil, syntaxError(data, i, "an event object")
	}
	d.buf = d.buf[:0]
	var object, action []byte
	var seen [2]bool
	if i = skipSpace(data, i+1); i < len(data) && data[i] == '}' {
		i++
	} else {
		for {
			var name, value []byte
			if name, i, err = d.str(data, skipSpace(data, i)); err != nil {
				return ev, i, nil, err
			}
			field := 0
			switch string(name) {
			case "object":
			case "action":
				field = 1
			default:
				return ev, i, nil, fmt.Errorf("%w: unknown field %q", errMalformed, name)
			}
			if seen[field] {
				return ev, i, nil, fmt.Errorf("%w: duplicate field %q", errMalformed, name)
			}
			seen[field] = true
			if i = skipSpace(data, i); i >= len(data) || data[i] != ':' {
				return ev, i, nil, syntaxError(data, i, "':'")
			}
			if i = skipSpace(data, i+1); i >= len(data) || data[i] != '"' {
				return ev, i, nil, fmt.Errorf("%w: field %q at offset %d: value must be a string", errMalformed, name, i)
			}
			if value, i, err = d.str(data, i); err != nil {
				return ev, i, nil, err
			}
			if field == 0 {
				object = value
			} else {
				action = value
			}
			if i = skipSpace(data, i); i < len(data) && data[i] == ',' {
				i++
				continue
			}
			if i < len(data) && data[i] == '}' {
				i++
				break
			}
			return ev, i, nil, syntaxError(data, i, "',' or '}'")
		}
	}
	ev.Key = string(object)
	if invalid = checkObject(ev.Key); invalid == nil {
		ev.Action, invalid = parseAction(action)
	}
	return ev, i, invalid, nil
}

// one decodes a body or NDJSON line that holds exactly one event with
// nothing but whitespace around it.
func (d *eventDecoder) one(data []byte) (ev sprofile.KeyedTuple[string], invalid, err error) {
	ev, i, invalid, err := d.event(data, 0)
	if err == nil {
		err = trailing(data, i)
	}
	return ev, invalid, err
}

// array decodes a JSON array of events, appending them to out. It fails at
// element maxBatch+1 without reading further. A syntax error anywhere fails
// the whole array; otherwise invalid is the first element the profile
// refuses and events holds the elements before it.
func (d *eventDecoder) array(data []byte, maxBatch int, out []sprofile.KeyedTuple[string]) (events []sprofile.KeyedTuple[string], invalid, err error) {
	i := skipSpace(data, 0)
	if i >= len(data) || data[i] != '[' {
		return out, nil, syntaxError(data, i, "'['")
	}
	if i = skipSpace(data, i+1); i < len(data) && data[i] == ']' {
		return out, nil, trailing(data, i+1)
	}
	for n := 0; ; n++ {
		if n == maxBatch {
			return out, nil, fmt.Errorf("%w: batch exceeds the limit of %d events", sprofile.ErrOutOfRange, maxBatch)
		}
		ev, next, bad, err := d.event(data, i)
		if err != nil {
			return out, nil, fmt.Errorf("element %d: %w", n, err)
		}
		if invalid == nil {
			if invalid = bad; bad == nil {
				out = append(out, ev)
			}
		}
		if i = skipSpace(data, next); i < len(data) && data[i] == ',' {
			i++
			continue
		}
		if i < len(data) && data[i] == ']' {
			return out, invalid, trailing(data, i+1)
		}
		return out, nil, syntaxError(data, i, "',' or ']'")
	}
}

// str decodes the JSON string starting at data[i] and returns its content
// and the offset after its closing quote. The content aliases data unless
// the string holds an escape; from its first backslash on, it is copied
// into d.buf with the escapes resolved.
func (d *eventDecoder) str(data []byte, i int) ([]byte, int, error) {
	if i >= len(data) || data[i] != '"' {
		return nil, i, syntaxError(data, i, "a string")
	}
	start, mark := i+1, -1 // mark: offset of the unescaped copy in d.buf
	j := start
	for j < len(data) && plain[data[j]] {
		j++
	}
	for j < len(data) {
		c := data[j]
		switch {
		case c == '"':
			if mark < 0 {
				return data[start:j], j + 1, nil
			}
			return d.buf[mark:], j + 1, nil
		case c == '\\':
			if mark < 0 {
				mark = len(d.buf)
				d.buf = append(d.buf, data[start:j]...)
			}
			n, err := d.escape(data, j)
			if err != nil {
				return nil, j, err
			}
			j += n
			continue
		case c < 0x20:
			return nil, j, fmt.Errorf("%w: control character 0x%02x in string at offset %d", errMalformed, c, j)
		}
		size := 1
		if c >= utf8.RuneSelf {
			var r rune
			if r, size = utf8.DecodeRune(data[j:]); r == utf8.RuneError && size == 1 {
				return nil, j, fmt.Errorf("%w: invalid UTF-8 in string at offset %d", errMalformed, j)
			}
		}
		if mark >= 0 {
			d.buf = append(d.buf, data[j:j+size]...)
		}
		j += size
	}
	return nil, len(data), fmt.Errorf("%w: unterminated string at offset %d", errMalformed, i)
}

// plain marks the bytes a string may hold as they are: printable ASCII
// other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// escape appends the character the escape sequence at data[j] stands for
// to d.buf and returns the sequence's length. A surrogate pair is one
// character; half of one is refused.
func (d *eventDecoder) escape(data []byte, j int) (int, error) {
	if j+1 >= len(data) {
		return 0, fmt.Errorf("%w: unterminated escape at offset %d", errMalformed, j)
	}
	switch c := data[j+1]; c {
	case '"', '\\', '/':
		d.buf = append(d.buf, c)
	case 'b':
		d.buf = append(d.buf, '\b')
	case 'f':
		d.buf = append(d.buf, '\f')
	case 'n':
		d.buf = append(d.buf, '\n')
	case 'r':
		d.buf = append(d.buf, '\r')
	case 't':
		d.buf = append(d.buf, '\t')
	case 'u':
		r, ok := hex4(data, j+2)
		if !ok {
			return 0, fmt.Errorf("%w: invalid \\u escape at offset %d", errMalformed, j)
		}
		if !utf16.IsSurrogate(r) {
			d.buf = utf8.AppendRune(d.buf, r)
			return 6, nil
		}
		if j+7 < len(data) && data[j+6] == '\\' && data[j+7] == 'u' {
			if r2, ok := hex4(data, j+8); ok {
				if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
					d.buf = utf8.AppendRune(d.buf, r)
					return 12, nil
				}
			}
		}
		return 0, fmt.Errorf("%w: unpaired surrogate escape at offset %d", errMalformed, j)
	default:
		return 0, fmt.Errorf("%w: invalid escape %q at offset %d", errMalformed, data[j:j+2], j)
	}
	return 2, nil
}

// hex4 parses the four hex digits of a \u escape at data[i:].
func hex4(data []byte, i int) (rune, bool) {
	if i+4 > len(data) {
		return 0, false
	}
	var r rune
	for _, c := range data[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// skipSpace returns the offset of the first non-whitespace byte at or after
// i, where whitespace is exactly JSON's: space, tab, CR and LF.
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return i
		}
	}
	return i
}

// trailing rejects anything but whitespace after the decoded value ending
// at offset i.
func trailing(data []byte, i int) error {
	if i = skipSpace(data, i); i < len(data) {
		return fmt.Errorf("%w: unexpected %q at offset %d after the event", errMalformed, data[i], i)
	}
	return nil
}

// syntaxError reports what the decoder expected at offset i.
func syntaxError(data []byte, i int, want string) error {
	if i >= len(data) {
		return fmt.Errorf("%w: unexpected end of input, want %s", errMalformed, want)
	}
	return fmt.Errorf("%w: unexpected %q at offset %d, want %s", errMalformed, data[i], i, want)
}
