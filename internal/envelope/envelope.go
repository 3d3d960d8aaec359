// Package envelope owns the line format of every durable artifact in the
// repo: checkpoint files (internal/durable), result-cache entries
// (internal/rescache) and daemon job files (internal/server). The
// explorer's memo spill tier does not use it: its file is private to one
// execution tree and deleted with it, so it writes compact binary records
// of its own (internal/explore/spill.go). It is a leaf package above
// internal/fsx, imported directly by each of its users. Encode and Decode
// are the codec; ReadFile is the one retrying read of an envelope file.
//
// The line format, with a caller-chosen magic line and record kind:
//
//	<magic>
//	meta <sha256-hex> <header bytes>
//	<kind> <sha256-hex> <record bytes>
//	...
//	end <sha256-hex> <record count> <sha256-hex of every preceding byte>
//
// Each record's first checksum covers that line's own payload; the end
// trailer's payload additionally pins the record count and the whole
// preceding byte stream, and must be exactly the form Encode writes.
// Header and record payloads must not contain newlines (JSON payloads
// never do; a binary payload must be text-encoded by its caller).
// Truncation at any byte offset leaves a detectable — and, per record,
// salvageable — prefix.
package envelope

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
)

// ErrCorrupt is the sentinel wrapped by every envelope integrity failure
// (Decode).
var ErrCorrupt = errors.New("durable: corrupt envelope")

func sum(payload []byte) string {
	h := sha256.Sum256(payload)
	return hex.EncodeToString(h[:])
}

// Encode renders header and records into the checksummed envelope format
// under the given magic line and record kind.
func Encode(magic, kind string, header []byte, records [][]byte) []byte {
	var b bytes.Buffer
	b.WriteString(magic)
	b.WriteByte('\n')
	fmt.Fprintf(&b, "meta %s %s\n", sum(header), header)
	for _, rec := range records {
		fmt.Fprintf(&b, "%s %s %s\n", kind, sum(rec), rec)
	}
	end := trailer(len(records), b.Bytes())
	fmt.Fprintf(&b, "end %s %s\n", sum([]byte(end)), end)
	return b.Bytes()
}

// trailer is the end record's payload: the record count and the checksum
// of every byte before the end line. Decode accepts only this exact form.
func trailer(records int, stream []byte) string {
	return fmt.Sprintf("%d %s", records, sum(stream))
}

// Decode parses data as an envelope written by Encode with the same magic
// and record kind, verifying every checksum. On integrity failure it
// returns an error wrapping ErrCorrupt alongside the longest valid prefix:
// the header (nil if it did not survive) and every record whose checksum
// verified before the first bad byte. Each returned record is individually
// integrity-checked, so callers may trust the prefix even when the
// envelope as a whole is rejected.
func Decode(magic, kind string, data []byte) (header []byte, records [][]byte, err error) {
	fail := func(format string, args ...any) ([]byte, [][]byte, error) {
		return header, records, fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
	if len(data) == 0 {
		return fail("empty envelope")
	}
	lineNo := 0
	sawMeta, sawEnd := false, false
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// A file ending without a newline was almost certainly torn
			// mid-record; the fragment's checksum decides.
			nl = len(data) - off
		}
		line := data[off : off+nl]
		lineStart := off
		off += nl + 1
		if sawEnd {
			if len(line) == 0 && off >= len(data) {
				continue // single trailing newline after the end record
			}
			return fail("data after end record (line %d)", lineNo+1)
		}
		switch {
		case lineNo == 0:
			if string(line) != magic {
				return fail("bad magic line %q (want %q)", truncateForErr(line), magic)
			}
		default:
			recKind, payload, err := splitLine(line)
			if err != nil {
				return fail("line %d: %v", lineNo+1, err)
			}
			switch recKind {
			case "meta":
				if sawMeta {
					return fail("line %d: duplicate meta record", lineNo+1)
				}
				sawMeta = true
				// Clone keeps an empty header non-nil: nil means "no
				// header survived".
				header = bytes.Clone(payload)
			case kind:
				if !sawMeta {
					return fail("line %d: %s record before meta", lineNo+1, kind)
				}
				records = append(records, append([]byte(nil), payload...))
			case "end":
				if !sawMeta {
					return fail("line %d: end record before meta", lineNo+1)
				}
				if want := trailer(len(records), data[:lineStart]); string(payload) != want {
					return fail("line %d: end record %q does not pin the %d records before it (want %q)",
						lineNo+1, truncateForErr(payload), len(records), truncateForErr([]byte(want)))
				}
				sawEnd = true
			default:
				return fail("line %d: unknown record kind %q", lineNo+1, recKind)
			}
		}
		lineNo++
	}
	if !sawEnd {
		return fail("missing end record (envelope truncated after %d lines)", lineNo)
	}
	return header, records, nil
}

// splitLine cuts "kind <checksum> <payload>" into its three fields and
// verifies the checksum over the payload.
func splitLine(line []byte) (kind string, payload []byte, err error) {
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 {
		return "", nil, fmt.Errorf("record %q has no checksum field", truncateForErr(line))
	}
	kind = string(line[:sp])
	rest := line[sp+1:]
	sp = bytes.IndexByte(rest, ' ')
	if sp < 0 {
		return kind, nil, fmt.Errorf("%s record has no payload field", kind)
	}
	want, payload := string(rest[:sp]), rest[sp+1:]
	if got := sum(payload); got != want {
		return kind, nil, fmt.Errorf("%s record checksum mismatch (stored %.12s…, computed %.12s…)", kind, want, got)
	}
	return kind, payload, nil
}

func truncateForErr(b []byte) string {
	const max = 24
	if len(b) > max {
		return string(b[:max]) + "…"
	}
	return string(b)
}
