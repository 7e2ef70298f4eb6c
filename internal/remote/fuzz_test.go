package remote

import (
	"bytes"
	"testing"
)

// FuzzReadFrame parses arbitrary bytes the way a Downlink reads its
// socket: ReadFrame, then decodeSample with the default codecs. Nothing
// may panic, and a sample that decodes must re-encode to a body that is
// a fixed point: encoding the decoded re-encoding yields the same bytes.
func FuzzReadFrame(f *testing.F) {
	// The checked-in corpus under testdata/fuzz seeds one valid frame
	// per default codec plus every header and body error class.
	codecs := DefaultCodecs()
	f.Fuzz(func(t *testing.T, data []byte) {
		_, body, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		s, err := decodeSample(body, codecs)
		if err != nil {
			return
		}
		enc, err := encodeSample(s, codecs)
		if err != nil {
			t.Fatalf("decoded sample does not re-encode: %v\nbody: %q", err, body)
		}
		s2, err := decodeSample(enc, codecs)
		if err != nil {
			t.Fatalf("re-encoded sample does not decode: %v\nbody: %q", err, enc)
		}
		enc2, err := encodeSample(s2, codecs)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not stable:\nfirst:  %s\nsecond: %s", enc, enc2)
		}
	})
}
