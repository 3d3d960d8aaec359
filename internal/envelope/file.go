package envelope

import (
	"context"

	"waitfree/internal/fsx"
)

// ReadFile loads and decodes the envelope at path through fsys (nil = the
// real filesystem); it is the one read every envelope-on-disk tier
// shares. Transient read faults retry under policy. A decode failure is a
// property of the bytes, so it is never retried, and Decode's contract
// holds: the error wraps ErrCorrupt and header/records are the longest
// individually-verified prefix, so callers may salvage even when the
// envelope as a whole is rejected. A read error is the policy's and wraps
// the last failure; fs.ErrNotExist is never retried, so callers can tell
// a missing file from a real I/O failure with errors.Is.
func ReadFile(fsys fsx.FS, policy fsx.RetryPolicy, path, magic, kind string) (header []byte, records [][]byte, err error) {
	fsys = fsx.Or(fsys)
	var data []byte
	if err := policy.Do(context.Background(), func() (err error) {
		data, err = fsys.ReadFile(path)
		return err
	}); err != nil {
		return nil, nil, err
	}
	return Decode(magic, kind, data)
}
