package api

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"lbe/internal/spectrum"
)

// The /search request decoder. Both serving tiers parse every request
// body — lbe-serve to search it, lbe-router to key its cache — so it is
// a one-pass scanner over the fixed SearchRequest schema rather than
// encoding/json's reflection into [][2]float64 plus a copy into
// []spectrum.Peak. The contract is encoding/json's: a body is accepted
// exactly when json.Unmarshal into a SearchRequest followed by
// SpectrumJSON.Experimental on every element succeeds, and then yields
// the same spectra (FuzzDecodeSearchRequest holds the two together).
// What that takes, beyond well-formed JSON:
//
//   - keys match case-insensitively after unescaping, the way
//     encoding/json's folded field names do ("scan", "SCAN" and
//     "ſcan" are all scan); unknown keys are skipped, their values still
//     checked for syntax and for nesting deeper than 10 000 levels;
//   - null leaves the value it lands on as it was;
//   - a repeated key decodes again into what the previous occurrence
//     left: scalars are overwritten, and a repeated "peaks" list reuses
//     the earlier list's elements, as encoding/json reuses a slice's
//     backing array — only null or [] starts it afresh;
//   - a peak array's elements past the second are skipped, missing ones
//     are zero;
//   - ints reject fractions, exponents and overflow, floats reject
//     overflow (1e400), and nothing but whitespace may follow the body.
//
// The one deliberate difference: a body repeating the "spectra" key is
// rejected, where encoding/json would decode the second array over the
// first one's elements.

// maxNestingDepth is encoding/json's limit on nested arrays and objects.
const maxNestingDepth = 10000

// errRepeatedSpectra rejects a body that names the spectra list twice.
var errRepeatedSpectra = errors.New(`api: request repeats the "spectra" key`)

// The field names the decoder knows, as SearchRequest and SpectrumJSON
// tag them.
var (
	requestFields  = []string{"spectra"}
	spectrumFields = []string{"scan", "precursor_mz", "charge", "retention_time", "peaks"}
)

// DecodeSearchRequest decodes a POST /search body into its query
// spectra, each with its peaks sorted and validated as
// SpectrumJSON.Experimental does. It accepts and rejects what
// json.Unmarshal into a SearchRequest followed by Experimental on every
// spectrum accepts and rejects, except that a repeated "spectra" key is
// an error. A body holding no spectra decodes to none without error.
func DecodeSearchRequest(body []byte) ([]spectrum.Experimental, error) {
	d := decoder{data: body}
	qs, err := d.request()
	if err != nil {
		return nil, err
	}
	for i := range qs {
		qs[i].SortPeaks()
		if err := qs[i].Validate(); err != nil {
			return nil, fmt.Errorf("spectrum %d: %w", i, err)
		}
	}
	return qs, nil
}

// decoder walks one request body. Every peak list is cut from one
// backing array sized from the body, so a request's peaks normally cost
// one allocation, not one per spectrum.
type decoder struct {
	data  []byte
	pos   int
	depth int             // arrays and objects open at pos
	peaks []spectrum.Peak // backing array of every spectrum's peak list
}

// request decodes the top-level value and checks nothing follows it.
func (d *decoder) request() ([]spectrum.Experimental, error) {
	var qs []spectrum.Experimental
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return nil, err
		}
	case '{':
		seen := false
		more, err := d.open('}')
		for err == nil && more {
			var key []byte
			if key, err = d.key(); err != nil {
				break
			}
			if fieldName(key, requestFields) == "spectra" {
				if seen {
					return nil, errRepeatedSpectra
				}
				seen = true
				qs, err = d.spectra()
			} else {
				err = d.skip()
			}
			if err == nil {
				more, err = d.next('}')
			}
		}
		if err != nil {
			return nil, err
		}
	default:
		return nil, d.mismatch("the request", "an object")
	}
	if d.peek(); d.pos < len(d.data) {
		return nil, d.syntax("data after the request body")
	}
	return qs, nil
}

// spectra decodes the "spectra" value: an array of spectrum objects.
func (d *decoder) spectra() ([]spectrum.Experimental, error) {
	switch d.peek() {
	case 'n':
		return nil, d.literal("null")
	case '[':
	default:
		return nil, d.mismatch("spectra", "an array")
	}
	var qs []spectrum.Experimental
	more, err := d.open(']')
	for err == nil && more {
		var e spectrum.Experimental
		if err = d.spectrum(&e); err == nil {
			qs = append(qs, e)
			more, err = d.next(']')
		}
	}
	return qs, err
}

// spectrum decodes one element of the spectra array into e.
func (d *decoder) spectrum(e *spectrum.Experimental) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("a spectrum", "an object")
	}
	// The peak list occupies d.peaks[start:]; stale holds how many
	// elements an earlier "peaks" key of this object left there.
	start := len(d.peaks)
	n, stale := 0, 0
	more, err := d.open('}')
	for err == nil && more {
		var key []byte
		if key, err = d.key(); err != nil {
			break
		}
		switch fieldName(key, spectrumFields) {
		case "scan":
			err = d.intValue("scan", &e.Scan)
		case "precursor_mz":
			err = d.floatValue("precursor_mz", &e.PrecursorMZ)
		case "charge":
			err = d.intValue("charge", &e.Charge)
		case "retention_time":
			err = d.floatValue("retention_time", &e.RetentionTime)
		case "peaks":
			n, stale, err = d.peakList(start, stale)
		default:
			err = d.skip()
		}
		if err == nil {
			more, err = d.next('}')
		}
	}
	e.Peaks = d.peaks[start : start+n : start+n]
	d.peaks = d.peaks[:start+n]
	return err
}

// peakList decodes a "peaks" value into d.peaks[start:], where stale
// elements survive from an earlier "peaks" key of the same spectrum. It
// returns the list's length and how many elements are now stale.
func (d *decoder) peakList(start, stale int) (n, newStale int, err error) {
	switch d.peek() {
	case 'n':
		d.peaks = d.peaks[:start]
		return 0, 0, d.literal("null")
	case '[':
	default:
		return 0, stale, d.mismatch("peaks", "an array")
	}
	more, err := d.open(']')
	if err != nil || !more {
		// [] replaces the list with a fresh empty one.
		d.peaks = d.peaks[:start]
		return 0, 0, err
	}
	if d.peaks == nil {
		// A peak takes at least six bytes of JSON and its Peak sixteen
		// of memory; one sixteenth of the body covers typical
		// full-precision peaks without regrowing.
		d.peaks = make([]spectrum.Peak, 0, len(d.data)/16+4)
	}
	for err == nil && more {
		if n == stale {
			d.peaks = append(d.peaks, spectrum.Peak{})
			stale++
		}
		if err = d.peak(&d.peaks[start+n]); err == nil {
			n++
			more, err = d.next(']')
		}
	}
	return n, stale, err
}

// peak decodes one [m/z, intensity] pair over p.
func (d *decoder) peak(p *spectrum.Peak) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("a peak", "an [m/z, intensity] array")
	}
	i := 0
	more, err := d.open(']')
	for err == nil && more {
		switch i {
		case 0:
			err = d.floatValue("a peak's m/z", &p.MZ)
		case 1:
			err = d.floatValue("a peak's intensity", &p.Intensity)
		default:
			err = d.skip()
		}
		if err == nil {
			i++
			more, err = d.next(']')
		}
	}
	if i < 2 {
		p.Intensity = 0
	}
	if i < 1 {
		p.MZ = 0
	}
	return err
}

// numberOrNull consumes the number or null that field what holds and
// returns the number's text, nil for null.
func (d *decoder) numberOrNull(what, want string) ([]byte, error) {
	switch c := d.peek(); {
	case c == 'n':
		return nil, d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	return nil, d.mismatch(what, want)
}

// intValue decodes a number or null into *dst as encoding/json decodes
// into an int: base-10 digits only, within int64.
func (d *decoder) intValue(what string, dst *int) error {
	num, err := d.numberOrNull(what, "an integer")
	if num == nil || err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil {
		return d.mismatch(what, "an integer, not "+string(num))
	}
	*dst = int(v)
	return nil
}

// floatValue decodes a number or null into *dst.
func (d *decoder) floatValue(what string, dst *float64) error {
	num, err := d.numberOrNull(what, "a number")
	if num == nil || err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return d.mismatch(what, "a float64, not "+string(num))
	}
	*dst = v
	return nil
}

// skip consumes one value of any shape, checking its syntax the way
// encoding/json's scanner does. It keeps its own stack of which open
// containers are objects, so a hostile nesting costs no recursion.
func (d *decoder) skip() error {
	var isObject [maxNestingDepth/64 + 1]uint64
	base := d.depth
	for {
		// A value starts at pos.
		var err error
		switch c := d.peek(); c {
		case '{', '[':
			closer := byte(']')
			if c == '{' {
				closer = '}'
			}
			var more bool
			if more, err = d.open(closer); err != nil {
				return err
			}
			if more {
				bit := uint64(1) << (d.depth % 64)
				if c == '{' {
					isObject[d.depth/64] |= bit
					_, err = d.key()
				} else {
					isObject[d.depth/64] &^= bit
				}
				if err != nil {
					return err
				}
				continue
			}
		case '"':
			_, _, err = d.str()
		case 't':
			err = d.literal("true")
		case 'f':
			err = d.literal("false")
		case 'n':
			err = d.literal("null")
		default:
			_, err = d.number()
		}
		if err != nil {
			return err
		}
		// The value ended: close containers until one has another member.
		for {
			if d.depth == base {
				return nil
			}
			object := isObject[d.depth/64]&(uint64(1)<<(d.depth%64)) != 0
			closer := byte(']')
			if object {
				closer = '}'
			}
			more, err := d.next(closer)
			if err != nil {
				return err
			}
			if more {
				if object {
					if _, err := d.key(); err != nil {
						return err
					}
				}
				break
			}
		}
	}
}

// peek skips whitespace and returns the byte at pos, 0 at the end.
func (d *decoder) peek() byte {
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// open consumes the '{' or '[' at pos and reports whether a member
// follows; an empty container is consumed whole.
func (d *decoder) open(closer byte) (bool, error) {
	if d.depth == maxNestingDepth {
		return false, d.syntax("nesting deeper than 10000 levels")
	}
	d.depth++
	d.pos++
	if d.peek() == closer {
		d.pos++
		d.depth--
		return false, nil
	}
	return true, nil
}

// next consumes the ',' or closer after a container member and reports
// whether another member follows.
func (d *decoder) next(closer byte) (bool, error) {
	switch d.peek() {
	case ',':
		d.pos++
		return true, nil
	case closer:
		d.pos++
		d.depth--
		return false, nil
	}
	return false, d.syntax("expected ',' or '" + string(closer) + "'")
}

// key consumes an object key and its colon, and returns the key
// unescaped.
func (d *decoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.syntax("expected a string key")
	}
	raw, escaped, err := d.str()
	if err != nil {
		return nil, err
	}
	if d.peek() != ':' {
		return nil, d.syntax("expected ':' after an object key")
	}
	d.pos++
	if escaped {
		return unescape(raw), nil
	}
	return raw, nil
}

// str consumes the string literal at pos and returns its raw contents
// and whether they hold escapes. Like encoding/json it refuses control
// characters and malformed escapes, and lets invalid UTF-8 through.
func (d *decoder) str() (raw []byte, escaped bool, err error) {
	start := d.pos + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], escaped, nil
		case c < 0x20:
			d.pos = i
			return nil, false, d.syntax("control character in a string")
		case c == '\\':
			escaped = true
			if i++; i == len(d.data) {
				break
			}
			switch d.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(d.data) {
					i = len(d.data) - 1
					break
				}
				if hex4(d.data[i+1:i+5]) < 0 {
					d.pos = i
					return nil, false, d.syntax(`malformed \u escape`)
				}
				i += 4
			default:
				d.pos = i
				return nil, false, d.syntax("invalid escape in a string")
			}
		}
	}
	d.pos = len(d.data)
	return nil, false, d.syntax("unterminated string")
}

// number consumes the JSON number at pos and returns its text.
func (d *decoder) number() ([]byte, error) {
	s, i := d.data, d.pos
	if i < len(s) && s[i] == '-' {
		i++
	}
	if i < len(s) && s[i] == '0' {
		i++
	} else if j := digits(s, i); j > i {
		i = j
	} else {
		d.pos = i
		return nil, d.syntax("expected a value")
	}
	if i < len(s) && s[i] == '.' {
		j := digits(s, i+1)
		if j == i+1 {
			d.pos = j
			return nil, d.syntax("expected a digit after the decimal point")
		}
		i = j
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		if i++; i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := digits(s, i)
		if j == i {
			d.pos = j
			return nil, d.syntax("expected a digit in the exponent")
		}
		i = j
	}
	num := s[d.pos:i]
	d.pos = i
	return num, nil
}

// digits returns the index of the first non-digit in s at or after i.
func digits(s []byte, i int) int {
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return i
}

// literal consumes the keyword word (true, false or null) at pos.
func (d *decoder) literal(word string) error {
	if len(d.data)-d.pos < len(word) || string(d.data[d.pos:d.pos+len(word)]) != word {
		return d.syntax("expected " + word)
	}
	d.pos += len(word)
	return nil
}

// syntax reports malformed JSON at pos.
func (d *decoder) syntax(what string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("api: invalid JSON: unexpected end of body (%s)", what)
	}
	return fmt.Errorf("api: invalid JSON at offset %d: %s", d.pos, what)
}

// mismatch reports well-formed JSON of the wrong type at pos.
func (d *decoder) mismatch(what, want string) error {
	if d.pos >= len(d.data) {
		return d.syntax("expected a value")
	}
	return fmt.Errorf("api: offset %d: %s must be %s", d.pos, what, want)
}

// fieldName returns the name in names that key selects, or "": an exact
// match first, then encoding/json's case folding (Unicode simple folds,
// so "ſ" selects s and U+212A, the Kelvin sign, selects k).
func fieldName(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if strings.EqualFold(string(key), n) {
			return n
		}
	}
	return ""
}

// unescape decodes a key's escapes as encoding/json does: a \u escape
// naming half a surrogate pair without its other half becomes U+FFFD.
// raw has passed str, so every escape in it is well formed.
func unescape(raw []byte) []byte {
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); {
		if raw[i] != '\\' {
			out = append(out, raw[i])
			i++
			continue
		}
		c := raw[i+1]
		i += 2
		switch c {
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r := hex4(raw[i : i+4])
			i += 4
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
					r2 = hex4(raw[i+2 : i+6])
				}
				if pair := utf16.DecodeRune(r, r2); pair != unicode.ReplacementChar {
					r = pair
					i += 6
				} else {
					r = unicode.ReplacementChar
				}
			}
			out = utf8.AppendRune(out, r)
		default: // '"', '\\', '/'
			out = append(out, c)
		}
	}
	return out
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
