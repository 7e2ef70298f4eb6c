package nmea

import (
	"errors"
	"fmt"
	"testing"
)

// FuzzParsePooledMatchesParse is the differential guard between the two
// parsers: for any input, ParsePooled followed by DetachPayload must
// yield exactly what Parse yields — the same value, or an error of the
// same class. Values are compared through their Go syntax, which tells
// nil from empty slices like reflect.DeepEqual does but, unlike it,
// treats a NaN field parsed on both sides as equal.
func FuzzParsePooledMatchesParse(f *testing.F) {
	// The checked-in corpus under testdata/fuzz seeds one sentence per
	// supported type plus malformed frames of every error class.
	f.Fuzz(func(t *testing.T, s string) {
		want, wantErr := Parse(s)
		p, gotErr := ParsePooled([]byte(s))
		if wc, gc := errClass(wantErr), errClass(gotErr); wc != gc {
			t.Fatalf("error class: Parse %v (%v), ParsePooled %v (%v)", wc, wantErr, gc, gotErr)
		}
		if wantErr != nil {
			return
		}
		if got := p.DetachPayload(); fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
			t.Fatalf("payload:\nParse       %#v\nParsePooled %#v", want, got)
		}
	})
}

// errClass maps a parse error to the sentinel it wraps.
func errClass(err error) error {
	if err == nil {
		return nil
	}
	for _, c := range []error{ErrFraming, ErrChecksum, ErrUnknownType, ErrFieldCount, ErrBadField} {
		if errors.Is(err, c) {
			return c
		}
	}
	return err
}
