package binenc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

type fields struct {
	u   uint64
	n   int64
	i   int
	m   int64
	w   uint64
	x   int64
	f   float64
	b   bool
	y   byte
	fs  []float64
	s   string
	bs  []byte
	len int
}

func (v *fields) walk(c *Codec) {
	c.Uvarint(&v.u)
	Uint(c, &v.n)
	Int(c, &v.i)
	Int(c, &v.m)
	Fixed(c, &v.w)
	Fixed(c, &v.x)
	c.Float(&v.f)
	c.Bool(&v.b)
	c.Byte(&v.y)
	c.Floats(&v.fs)
	Bytes(c, &v.s)
	Bytes(c, &v.bs)
	v.len = c.Len(v.len, 1)
}

// TestWalkBothWays: one description of the fields writes them and reads
// them back, bit for bit, and encoding leaves what it is shown alone.
func TestWalkBothWays(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_0000_beef)
	for _, want := range []fields{
		{},
		{u: 300, n: 1, i: -1, m: math.MinInt64, w: math.MaxUint64, x: -2, f: math.Copysign(0, -1), b: true, y: 0xff, fs: []float64{1.5, nan, math.Inf(-1)}, s: "ds-007", bs: []byte("buyer-0001"), len: 0},
		{u: math.MaxUint64, n: math.MaxInt64, i: math.MaxInt64, m: 64, x: math.MinInt64, f: nan, fs: []float64{}, s: "\x00\xff"},
	} {
		src := want
		enc := Encoder(nil)
		src.walk(enc)
		var got fields
		dec := Decoder(enc.B)
		got.walk(dec)
		if dec.Done() != nil {
			t.Fatalf("%+v: decode left %d bytes, err %v", want, len(dec.B), dec.Err())
		}
		again := Encoder(nil)
		got.walk(again)
		if !bytes.Equal(again.B, enc.B) {
			t.Fatalf("%+v decoded as %+v", want, got)
		}
		if math.Float64bits(got.f) != math.Float64bits(want.f) || got.s != want.s || got.i != want.i || got.m != want.m || got.n != want.n || got.x != want.x || got.y != want.y || got.fs == nil {
			t.Fatalf("%+v decoded as %+v", want, got)
		}
		// A decoded byte slice is the input's own bytes, capped so that
		// appending to it cannot write over what follows.
		if len(got.bs) > 0 {
			at := bytes.Index(enc.B, want.bs)
			if &got.bs[0] != &enc.B[at] || cap(got.bs) != len(got.bs) {
				t.Fatalf("%+v: decoded bytes %q are a copy, or overrun their field", want, got.bs)
			}
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
// than 0 or 1, a count the input cannot hold, an integer its type cannot
// hold, a byte left over — each is ErrMalformed, and the oversized count
// is refused where it is read.
func TestDecodingRefusesTheNonCanonical(t *testing.T) {
	for name, tc := range map[string]struct {
		data []byte
		read func(*Codec)
	}{
		"padded varint":    {[]byte{0x80, 0x00}, func(c *Codec) { var u uint64; c.Uvarint(&u) }},
		"padded length":    {[]byte{0x81, 0x00, 'a'}, func(c *Codec) { var b []byte; Bytes(c, &b) }},
		"uint past int64":  {[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80, 0x01}, func(c *Codec) { var n int64; Uint(c, &n) }},
		"uint past int":    {binary.AppendUvarint(nil, math.MaxUint64), func(c *Codec) { var n int; Uint(c, &n) }},
		"trailing byte":    {[]byte{1, 0}, func(c *Codec) { var y byte; c.Byte(&y); c.Done() }},
		"fixed past end":   {[]byte{1, 2, 3}, func(c *Codec) { var x int64; Fixed(c, &x) }},
		"overlong varint":  {bytes.Repeat([]byte{0xff}, 11), func(c *Codec) { var u uint64; c.Uvarint(&u) }},
		"bool byte 2":      {[]byte{2}, func(c *Codec) { var b bool; c.Bool(&b) }},
		"count past input": {[]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2, 3}, func(c *Codec) { var fs []float64; c.Floats(&fs) }},
		"string past end":  {[]byte{5, 'a', 'b'}, func(c *Codec) { var s string; Bytes(c, &s) }},
	} {
		c := Decoder(tc.data)
		if tc.read(c); !errors.Is(c.Err(), ErrMalformed) {
			t.Errorf("%s: %v, want ErrMalformed", name, c.Err())
		}
	}
}
