package nmea

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Pooled payload carriers for the saturated hot path. A simulated
// receiver renders ~4 sentences per epoch and the parser re-boxes each
// of them; with string/interface payloads that is ~13 heap allocations
// per source step. Raw and Parsed are reference-counted pool objects
// implementing the core.PooledPayload contract (DESIGN.md §13): the
// channel layer's history ring and data-tree roots Retain/Release them,
// and DetachPayload converts back to the legacy payload form (string /
// boxed sentence value) whenever a sample escapes the pool's ownership
// domain (Sample.Detach, sink retention, remote encoding).
//
// Refcounts float at zero: a payload that is never retained is simply
// garbage-collected and the pool misses one recycle — correctness never
// depends on reaching zero. Releasing below zero panics, as that means
// some holder released a reference it did not own.

// Raw is a pooled framed NMEA sentence ("$GPGGA,...*HH\r\n") carried as
// bytes. It is produced by FormatRaw and consumed by ParsePooled.
type Raw struct {
	buf  []byte
	refs atomic.Int32
}

var rawPool = sync.Pool{New: func() any { return &Raw{buf: make([]byte, 0, 96)} }}

// Bytes returns the framed sentence. The slice is valid only while the
// caller holds a reference; it must not be modified or retained past
// Release.
func (r *Raw) Bytes() []byte { return r.buf }

// String copies the framed sentence into a fresh string.
func (r *Raw) String() string { return string(r.buf) }

// Retain adds a reference.
func (r *Raw) Retain() { r.refs.Add(1) }

// Release drops a reference, recycling the object when the count
// returns to zero. Releasing below zero panics.
func (r *Raw) Release() {
	switch n := r.refs.Add(-1); {
	case n > 0:
	case n == 0:
		r.buf = r.buf[:0]
		rawPool.Put(r)
	default:
		panic("nmea: Raw released below zero")
	}
}

// DetachPayload returns the legacy payload form: the framed sentence as
// a string.
func (r *Raw) DetachPayload() any { return string(r.buf) }

// Appender is satisfied by sentence values that can render their framed
// wire form into a caller-supplied buffer. It is a type constraint, not
// a boxing surface: FormatRaw is generic so value sentences stay on the
// stack.
type Appender interface {
	AppendFormat(dst []byte) []byte
}

// FormatRaw renders s into a pooled Raw. The caller owns the floating
// (zero) reference: emit it as a sample payload and the channel layer's
// retention takes over.
func FormatRaw[S Appender](s S) *Raw {
	r := rawPool.Get().(*Raw)
	r.buf = s.AppendFormat(r.buf[:0])
	return r
}

// SentenceKind discriminates the union held by a Parsed payload.
type SentenceKind uint8

// Sentence kinds stored in Parsed.
const (
	KindUnknown SentenceKind = iota
	KindGGA
	KindRMC
	KindGSA
	KindGSV
)

// Parsed is a pooled parsed sentence: a tagged union of the four
// supported types whose PRN/satellite slices alias internal fixed
// buffers, so parsing a sentence group costs zero heap allocations.
// Parsed is always handled by pointer — copying the struct would break
// the internal aliasing.
type Parsed struct {
	kind SentenceKind
	gga  GGA
	rmc  RMC
	gsa  GSA
	gsv  GSV

	prnBuf [12]int
	satBuf [4]SatelliteInView
	refs   atomic.Int32
}

var parsedPool = sync.Pool{New: func() any { return new(Parsed) }}

// Type implements Sentence.
func (p *Parsed) Type() string {
	switch p.kind {
	case KindGGA:
		return "GGA"
	case KindRMC:
		return "RMC"
	case KindGSA:
		return "GSA"
	case KindGSV:
		return "GSV"
	default:
		return "???"
	}
}

// Kind returns the sentence kind held by the union.
func (p *Parsed) Kind() SentenceKind { return p.kind }

// GGA returns the parsed GGA value. Valid only when Kind is KindGGA.
func (p *Parsed) GGA() GGA { return p.gga }

// RMC returns the parsed RMC value. Valid only when Kind is KindRMC.
func (p *Parsed) RMC() RMC { return p.rmc }

// GSA returns a view of the parsed GSA. The PRNs slice aliases pooled
// storage and is valid only while the caller holds a reference.
func (p *Parsed) GSA() GSA { return p.gsa }

// GSV returns a view of the parsed GSV. The Satellites slice aliases
// pooled storage and is valid only while the caller holds a reference.
func (p *Parsed) GSV() GSV { return p.gsv }

// Retain adds a reference.
func (p *Parsed) Retain() { p.refs.Add(1) }

// Release drops a reference, recycling the object when the count
// returns to zero. Releasing below zero panics.
func (p *Parsed) Release() {
	switch n := p.refs.Add(-1); {
	case n > 0:
	case n == 0:
		p.kind = KindUnknown
		parsedPool.Put(p)
	default:
		panic("nmea: Parsed released below zero")
	}
}

// DetachPayload returns the legacy payload form: the boxed sentence
// value with slices deep-copied out of pooled storage, indistinguishable
// from what Parse would have returned.
func (p *Parsed) DetachPayload() any {
	switch p.kind {
	case KindGGA:
		return p.gga
	case KindRMC:
		return p.rmc
	case KindGSA:
		g := p.gsa
		g.PRNs = nil // Parse leaves PRNs nil when the sentence lists none
		if len(p.gsa.PRNs) > 0 {
			g.PRNs = append(make([]int, 0, len(p.gsa.PRNs)), p.gsa.PRNs...)
		}
		return g
	case KindGSV:
		g := p.gsv
		g.Satellites = append(make([]SatelliteInView, 0, len(g.Satellites)), g.Satellites...)
		return g
	default:
		return nil
	}
}

// format renders the held sentence in framed wire form.
func (p *Parsed) format() (string, error) {
	switch p.kind {
	case KindGGA:
		return p.gga.Format(), nil
	case KindRMC:
		return p.rmc.Format(), nil
	case KindGSA:
		return p.gsa.Format(), nil
	case KindGSV:
		return p.gsv.Format(), nil
	default:
		return "", fmt.Errorf("%w: empty pooled sentence", ErrUnknownType)
	}
}

// ParsePooled parses a framed sentence from bytes into a pooled Parsed.
// The input is only read during the call — error values copy any quoted
// fragment eagerly (fmt %q) and the parsers retain no substrings — so
// the caller may release or reuse raw immediately after. The returned
// Parsed carries a floating (zero) reference, like FormatRaw.
func ParsePooled(raw []byte) (*Parsed, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("%w: empty sentence", ErrFraming)
	}
	// Zero-copy view: the parse helpers below never retain substrings of
	// the payload (verified field by field — only numeric, time and bool
	// fields survive), so viewing the caller's bytes as a string is safe
	// even though the bytes may be recycled after we return.
	s := unsafe.String(unsafe.SliceData(raw), len(raw))
	payload, err := unframe(s)
	if err != nil {
		return nil, err
	}
	var fieldBuf [maxFields]string
	nf := splitFields(payload, &fieldBuf)
	if nf < 0 {
		return nil, fmt.Errorf("%w: too many fields in %q", ErrFieldCount, payload)
	}
	fields := fieldBuf[:nf]
	talkerType := fields[0]
	if len(talkerType) != 5 {
		return nil, fmt.Errorf("%w: bad talker/type %q", ErrFraming, talkerType)
	}
	p := parsedPool.Get().(*Parsed)
	switch talkerType[2:] {
	case "GGA":
		p.kind = KindGGA
		err = parseGGAInto(fields, &p.gga)
	case "RMC":
		p.kind = KindRMC
		err = parseRMCInto(fields, &p.rmc)
	case "GSA":
		p.kind = KindGSA
		err = parseGSAInto(fields, &p.gsa, p.prnBuf[:0])
	case "GSV":
		p.kind = KindGSV
		err = parseGSVInto(fields, &p.gsv, p.satBuf[:0])
	default:
		err = fmt.Errorf("%w: %q", ErrUnknownType, talkerType[2:])
	}
	if err != nil {
		p.kind = KindUnknown
		parsedPool.Put(p)
		return nil, err
	}
	return p, nil
}
