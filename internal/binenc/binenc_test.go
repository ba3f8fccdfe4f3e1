package binenc

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

type fields struct {
	u   uint64
	i   int
	m   int64
	w   uint64
	f   float64
	b   bool
	fs  []float64
	s   string
	len int
}

func (v *fields) walk(c *Codec) {
	c.Uvarint(&v.u)
	Int(c, &v.i)
	Int(c, &v.m)
	c.Uint64(&v.w)
	c.Float(&v.f)
	c.Bool(&v.b)
	c.Floats(&v.fs)
	Str(c, &v.s)
	v.len = c.Len(v.len, 1)
}

// TestWalkBothWays: one description of the fields writes them and reads
// them back, bit for bit, and encoding leaves what it is shown alone.
func TestWalkBothWays(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_0000_beef)
	for _, want := range []fields{
		{},
		{u: 300, i: -1, m: math.MinInt64, w: math.MaxUint64, f: math.Copysign(0, -1), b: true, fs: []float64{1.5, nan, math.Inf(-1)}, s: "ds-007", len: 0},
		{u: math.MaxUint64, i: math.MaxInt64, m: 64, f: nan, fs: []float64{}, s: "\x00\xff"},
	} {
		src := want
		enc := Encoder(nil)
		src.walk(enc)
		var got fields
		dec := Decoder(enc.B)
		got.walk(dec)
		if dec.Err() != nil || len(dec.B) != 0 {
			t.Fatalf("%+v: decode left %d bytes, err %v", want, len(dec.B), dec.Err())
		}
		again := Encoder(nil)
		got.walk(again)
		if !bytes.Equal(again.B, enc.B) {
			t.Fatalf("%+v decoded as %+v", want, got)
		}
		if math.Float64bits(got.f) != math.Float64bits(want.f) || got.s != want.s || got.i != want.i || got.m != want.m || got.fs == nil {
			t.Fatalf("%+v decoded as %+v", want, got)
		}
		// Every truncation fails, and fails closed.
		for n := 0; n < len(enc.B); n++ {
			var cut fields
			dec := Decoder(enc.B[:n])
			if cut.walk(dec); !errors.Is(dec.Err(), ErrMalformed) {
				t.Fatalf("%+v cut to %d of %d bytes: %v", want, n, len(enc.B), dec.Err())
			}
		}
	}
}

// TestDecodingRefusesTheNonCanonical: a padded varint, a bool byte other
// than 0 or 1, a count the input cannot hold — each is ErrMalformed, and
// the oversized count is refused where it is read.
func TestDecodingRefusesTheNonCanonical(t *testing.T) {
	for name, tc := range map[string]struct {
		data []byte
		read func(*Codec)
	}{
		"padded varint":    {[]byte{0x80, 0x00}, func(c *Codec) { var u uint64; c.Uvarint(&u) }},
		"overlong varint":  {bytes.Repeat([]byte{0xff}, 11), func(c *Codec) { var u uint64; c.Uvarint(&u) }},
		"bool byte 2":      {[]byte{2}, func(c *Codec) { var b bool; c.Bool(&b) }},
		"count past input": {[]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2, 3}, func(c *Codec) { var fs []float64; c.Floats(&fs) }},
		"string past end":  {[]byte{5, 'a', 'b'}, func(c *Codec) { var s string; Str(c, &s) }},
	} {
		c := Decoder(tc.data)
		if tc.read(c); !errors.Is(c.Err(), ErrMalformed) {
			t.Errorf("%s: %v, want ErrMalformed", name, c.Err())
		}
	}
}
