package api

import (
	"fmt"
	"strconv"
	"unicode/utf8"
)

// The /search reply decoder. lbe-router gathers one reply per shard-set
// and merges them, so every scatter round decodes p bodies. The bodies
// are our own holders' AppendSearchResponse output, so the decoder is
// strict where encoding/json is lenient: what it accepts, json.Unmarshal
// into a SearchResponse accepts too and decodes to the same value
// (FuzzDecodeSearchResponse holds the two together, and holds it to
// accept every body AppendSearchResponse writes), but it refuses
//
//   - keys that are not the exact field names, and unknown or repeated
//     keys;
//   - a missing field, except "sequence", which the encoder omits when
//     empty;
//   - null anywhere but as the "results" or "psms" list, where it is
//     what the encoder writes for a nil slice;
//   - invalid UTF-8 inside a string, which encoding/json would replace
//     with U+FFFD.

// The fields of a reply, in the order AppendSearchResponse writes them.
var (
	responseFields = []string{"results"}
	resultFields   = []string{"scan", "psms"}
	psmFields      = []string{"peptide", "sequence", "score", "shared", "precursor", "shard"}
)

// minPSMBytes is the shortest PSM object the decoder accepts:
// {"peptide":0,"score":0,"shared":0,"precursor":0,"shard":0}.
const minPSMBytes = 58

// DecodeSearchResponse decodes a /search reply body in one pass. Every
// PSM list is cut from one backing array and every sequence from one
// string copy of the body, so a reply costs three allocations plus one
// per escaped sequence.
func DecodeSearchResponse(body []byte) (SearchResponse, error) {
	d := responseDecoder{
		decoder: decoder{data: body},
		text:    string(body),
		psms:    make([]PSMJSON, 0, len(body)/minPSMBytes+1),
	}
	r, err := d.response()
	if err != nil {
		return SearchResponse{}, err
	}
	if d.peek(); d.pos < len(d.data) {
		return SearchResponse{}, d.syntax("data after the response body")
	}
	return r, nil
}

// responseDecoder walks one reply body.
type responseDecoder struct {
	decoder
	text string    // the body, for sequences cut from it without a copy
	psms []PSMJSON // backing array of every result's PSM list
}

// object decodes the object at pos, calling member for each key after
// checking it is one of fields, exact and not repeated, and checks that
// every field whose bit is set in required was present.
func (d *responseDecoder) object(what string, fields []string, required uint, member func(field int) error) error {
	if d.peek() != '{' {
		return d.mismatch(what, "an object")
	}
	var seen uint
	more, err := d.open('}')
	for err == nil && more {
		var key []byte
		if key, err = d.key(); err != nil {
			break
		}
		field := -1
		for i, f := range fields {
			if string(key) == f {
				field = i
			}
		}
		switch {
		case field < 0:
			return fmt.Errorf("api: offset %d: %s has an unknown key %q", d.pos, what, key)
		case seen&(1<<field) != 0:
			return fmt.Errorf("api: offset %d: %s repeats the %q key", d.pos, what, key)
		}
		seen |= 1 << field
		if err = member(field); err == nil {
			more, err = d.next('}')
		}
	}
	if err != nil {
		return err
	}
	for i, f := range fields {
		if required&(1<<i) != 0 && seen&(1<<i) == 0 {
			return fmt.Errorf("api: offset %d: %s has no %q key", d.pos, what, f)
		}
	}
	return nil
}

// list decodes an array or null at pos, calling elem for each element;
// it reports whether the value was null.
func (d *responseDecoder) list(what string, elem func() error) (null bool, err error) {
	switch d.peek() {
	case 'n':
		return true, d.literal("null")
	case '[':
	default:
		return false, d.mismatch(what, "an array")
	}
	more, err := d.open(']')
	for err == nil && more {
		if err = elem(); err == nil {
			more, err = d.next(']')
		}
	}
	return false, err
}

// response decodes the top-level object.
func (d *responseDecoder) response() (SearchResponse, error) {
	var r SearchResponse
	err := d.object("the response", responseFields, 1, func(int) error {
		null, err := d.list("results", func() error {
			r.Results = append(r.Results, QueryResult{})
			return d.result(&r.Results[len(r.Results)-1])
		})
		if err == nil && !null && r.Results == nil {
			r.Results = []QueryResult{}
		}
		return err
	})
	return r, err
}

// result decodes one element of the results array into q.
func (d *responseDecoder) result(q *QueryResult) error {
	return d.object("a result", resultFields, 1<<0|1<<1, func(field int) error {
		if field == 0 {
			return d.intField("scan", &q.Scan)
		}
		start := len(d.psms)
		null, err := d.list("psms", func() error {
			d.psms = append(d.psms, PSMJSON{})
			return d.psm(&d.psms[len(d.psms)-1])
		})
		if !null {
			q.PSMs = d.psms[start:len(d.psms):len(d.psms)]
		}
		return err
	})
}

// psm decodes one PSM object into p.
func (d *responseDecoder) psm(p *PSMJSON) error {
	const required = 1<<0 | 1<<2 | 1<<3 | 1<<4 | 1<<5 // all but sequence
	return d.object("a PSM", psmFields, required, func(field int) error {
		switch field {
		case 0:
			v, err := d.uintField("peptide", 32)
			p.Peptide = uint32(v)
			return err
		case 1:
			return d.sequence(&p.Sequence)
		case 2:
			return d.floatField("score", &p.Score)
		case 3:
			v, err := d.uintField("shared", 16)
			p.Shared = uint16(v)
			return err
		case 4:
			return d.floatField("precursor", &p.Precursor)
		default:
			return d.intField("shard", &p.Shard)
		}
	})
}

// sequence decodes a string value into *dst: a slice of the body's
// string copy unless it holds escapes.
func (d *responseDecoder) sequence(dst *string) error {
	if d.peek() != '"' {
		return d.mismatch("sequence", "a string")
	}
	start := d.pos + 1
	raw, escaped, err := d.str()
	if err != nil {
		return err
	}
	if !utf8.Valid(raw) {
		return d.mismatch("sequence", "valid UTF-8")
	}
	if escaped {
		*dst = string(unescape(raw))
	} else {
		*dst = d.text[start : start+len(raw)]
	}
	return nil
}

// numberField consumes the number field what holds; null is refused.
func (d *responseDecoder) numberField(what, want string) ([]byte, error) {
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return nil, d.mismatch(what, want)
	}
	return d.number()
}

// intField decodes a number as encoding/json decodes into an int.
func (d *responseDecoder) intField(what string, dst *int) error {
	num, err := d.numberField(what, "an integer")
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	if err != nil {
		return d.mismatch(what, "an int, not "+string(num))
	}
	*dst = int(v)
	return nil
}

// uintField decodes a number as encoding/json decodes into an unsigned
// integer of the given bit size.
func (d *responseDecoder) uintField(what string, bits int) (uint64, error) {
	num, err := d.numberField(what, "an unsigned integer")
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(string(num), 10, bits)
	if err != nil {
		return 0, d.mismatch(what, fmt.Sprintf("a uint%d, not %s", bits, num))
	}
	return v, nil
}

// floatField decodes a number into *dst.
func (d *responseDecoder) floatField(what string, dst *float64) error {
	num, err := d.numberField(what, "a number")
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return d.mismatch(what, "a float64, not "+string(num))
	}
	*dst = v
	return nil
}
