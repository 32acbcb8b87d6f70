package api

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendSearchResponse appends r to dst exactly as
// json.NewEncoder(w).Encode(r) writes it — field order, omitempty on
// sequence, the float and string forms, the trailing newline — without
// reflection, and returns the extended buffer. Every float in r must be
// finite, as encoding/json requires. FuzzAppendSearchResponse holds the
// bytes to json.Encoder's.
//
//lbe:hotpath
func AppendSearchResponse(dst []byte, r SearchResponse) []byte {
	dst = append(dst, `{"results":`...)
	if r.Results == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, q := range r.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"scan":`...)
			dst = strconv.AppendInt(dst, int64(q.Scan), 10)
			dst = append(dst, `,"psms":`...)
			dst = appendPSMs(dst, q.PSMs)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

// appendPSMs appends one result's PSM array.
func appendPSMs(dst []byte, psms []PSMJSON) []byte {
	if psms == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, p := range psms {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"peptide":`...)
		dst = strconv.AppendUint(dst, uint64(p.Peptide), 10)
		if p.Sequence != "" {
			dst = append(dst, `,"sequence":`...)
			dst = appendString(dst, p.Sequence)
		}
		dst = append(dst, `,"score":`...)
		dst = appendFloat(dst, p.Score)
		dst = append(dst, `,"shared":`...)
		dst = strconv.AppendUint(dst, uint64(p.Shared), 10)
		dst = append(dst, `,"precursor":`...)
		dst = appendFloat(dst, p.Precursor)
		dst = append(dst, `,"shard":`...)
		dst = strconv.AppendInt(dst, int64(p.Shard), 10)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendFloat writes f as encoding/json does (ES6 number formatting):
// the shortest round-tripping digits in 'f' form, switching to 'e' form
// below 1e-6 and from 1e21 on, with a two-digit negative exponent's
// leading zero dropped (1e-07 is written 1e-7).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(dst)
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n-start >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendString writes s as a JSON string the way json.Encoder does with
// its default HTML escaping: <, > and & as \u00XX escapes, so are
// control characters without a short escape, U+2028 and U+2029 as
// \u202X, and each byte of invalid UTF-8 as the escaped U+FFFD.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
