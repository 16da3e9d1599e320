package store

import (
	"bytes"
	"errors"
	"testing"

	"prmsel/internal/core"
)

// FuzzPayload throws arbitrary bytes at the snapshot frame validator and
// then at the model decoder. The invariant under test is the recovery
// path's: no input may panic, and any accepted payload must decode into
// a model or fail cleanly — corrupt files get quarantined, never served.
func FuzzPayload(f *testing.F) {
	var buf bytes.Buffer
	if err := testModel(f).Encode(&buf); err != nil {
		f.Fatal(err)
	}
	valid := Frame(buf.Bytes())

	f.Add(valid)
	f.Add(valid[:headerSize])         // header only, payload gone
	f.Add(valid[:len(valid)/2])       // torn mid-payload
	f.Add(valid[:headerSize-3])       // torn mid-header
	f.Add([]byte{})                   // empty file
	f.Add([]byte(Magic))              // magic alone
	f.Add([]byte("not a snapshot"))   // raw stream fallback trigger
	f.Add(Frame(nil))                 // zero-length payload
	f.Add(Frame([]byte("bad model"))) // valid frame, garbage model
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xff
	f.Add(flipped) // checksum mismatch
	badver := append([]byte(nil), valid...)
	badver[len(Magic)] = 0x7f
	f.Add(badver) // wrong version byte

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := Payload(data)
		if err != nil {
			if errors.Is(err, ErrNotSnapshot) &&
				len(data) >= len(Magic) && string(data[:len(Magic)]) == Magic {
				t.Error("input with snapshot magic reported ErrNotSnapshot")
			}
			return
		}
		// Accepted frame: the checksum held, so the payload must be intact.
		if len(payload) == 0 {
			t.Error("Payload accepted a zero-length payload")
		}
		// Decoding may still fail (the checksum guards bit rot, not a
		// malicious writer) — it just must not panic.
		core.Decode(bytes.NewReader(payload))
	})
}
