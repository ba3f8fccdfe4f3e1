// Package binenc is the field walker under every binary grammar the
// market speaks: the snapshot codec (command.Snapshot.Canonical), the
// command codec (command.AppendBinary and DecodeBinary), the wire
// protocol's heads and bodies (internal/wire), and the head of a journal
// record's body (internal/journal). A type describes its encoding once,
// as calls on a Codec in field order, and that one description both
// writes the fields and reads them back, so the two cannot drift apart.
// The encoding is canonical — integers are minimal varints, bools 0 or
// 1, floats their raw IEEE-754 bits — and decoding refuses anything
// else, so bytes that decode re-encode to themselves.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrMalformed is wrapped by every decoding failure.
var ErrMalformed = errors.New("malformed binary encoding")

// Codec encodes into B, or decodes from it. Encoding only reads the
// fields it is shown. Decoding, the first failure sticks: later calls
// leave their field zero, and the caller checks Err once at the end.
type Codec struct {
	B   []byte // the output so far, or the input left
	dec bool
	err error
}

// Encoder returns a codec that appends to dst.
func Encoder(dst []byte) *Codec { return &Codec{B: dst} }

// Decoder returns a codec that reads data, which it never modifies.
func Decoder(data []byte) *Codec { return &Codec{B: data, dec: true} }

// Decoding reports which way the codec runs.
func (c *Codec) Decoding() bool { return c.dec }

// Err returns the first decoding failure.
func (c *Codec) Err() error { return c.err }

// Done is Err once a walk should have read all of its input: decoding,
// input left over is a failure too.
func (c *Codec) Done() error {
	if c.dec && len(c.B) != 0 {
		c.Fail("%d trailing bytes", len(c.B))
	}
	return c.err
}

// Fail records a failure found by the caller.
func (c *Codec) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
}

// take consumes n bytes of input, nil once decoding has failed.
func (c *Codec) take(n int) []byte {
	if c.err != nil || n > len(c.B) {
		c.Fail("truncated")
		return nil
	}
	b := c.B[:n:n]
	c.B = c.B[n:]
	return b
}

// Byte walks one raw byte.
func (c *Codec) Byte(v *byte) {
	if !c.dec {
		c.B = append(c.B, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	} else {
		*v = 0
	}
}

// Uvarint walks an unsigned integer, a varint in its shortest form.
func (c *Codec) Uvarint(v *uint64) {
	if !c.dec {
		c.B = binary.AppendUvarint(c.B, *v)
		return
	}
	u, n := binary.Uvarint(c.B)
	if n <= 0 || n > 1 && c.B[n-1] == 0 {
		c.Fail("bad varint")
	}
	if *v = 0; c.take(max(n, 0)) != nil {
		*v = u
	}
}

// Uint walks a non-negative integer as a plain Uvarint; decoding refuses
// a value T cannot hold.
func Uint[T ~int | ~int64 | ~uint64](c *Codec, v *T) {
	u := uint64(*v)
	if c.Uvarint(&u); c.dec {
		if *v = T(u); *v < 0 || uint64(*v) != u {
			*v = 0
			c.Fail("integer %d overflows", u)
		}
	}
}

// Int walks a signed integer, zigzag over Uvarint.
func Int[T ~int | ~int64](c *Codec, v *T) {
	u := uint64(*v)<<1 ^ uint64(int64(*v)>>63)
	if c.Uvarint(&u); c.dec {
		x := int64(u>>1) ^ -int64(u&1)
		if *v = T(x); int64(*v) != x {
			c.Fail("integer %d overflows", x)
		}
	}
}

// Fixed walks eight little-endian bytes.
func Fixed[T ~uint64 | ~int64](c *Codec, v *T) {
	if !c.dec {
		c.B = binary.LittleEndian.AppendUint64(c.B, uint64(*v))
	} else if b := c.take(8); b != nil {
		*v = T(binary.LittleEndian.Uint64(b))
	} else {
		*v = 0
	}
}

// Float walks a float's raw bits.
func (c *Codec) Float(v *float64) {
	u := math.Float64bits(*v)
	if Fixed(c, &u); c.dec {
		*v = math.Float64frombits(u)
	}
}

// Bool walks one byte, 0 or 1.
func (c *Codec) Bool(v *bool) {
	b := byte(0)
	if *v {
		b = 1
	}
	if c.Byte(&b); c.dec {
		if *v = b == 1; b > 1 {
			c.Fail("bool byte %d", b)
		}
	}
}

// Len walks an element count: n, encoding; decoding, the count read —
// refused, before anything is allocated for it, when the input left could
// not hold that many elements of at least elemBytes each.
func (c *Codec) Len(n, elemBytes int) int {
	u := uint64(n)
	if c.Uvarint(&u); c.dec && (u > uint64(len(c.B)) || u*uint64(elemBytes) > uint64(len(c.B))) {
		c.Fail("count %d exceeds the %d bytes left", u, len(c.B))
		return 0
	}
	return int(u)
}

// Floats walks a count and each element's raw bits; decoded, never nil.
func (c *Codec) Floats(v *[]float64) {
	if n := c.Len(len(*v), 8); c.dec {
		*v = make([]float64, n)
	}
	for i := range *v {
		c.Float(&(*v)[i])
	}
}

// Bytes walks a byte string: a length and the bytes. Decoded, a string
// is a copy, and a byte slice aliases the input.
func Bytes[T ~string | ~[]byte](c *Codec, v *T) {
	if n := c.Len(len(*v), 1); c.dec {
		*v = T(c.take(n))
	} else {
		c.B = append(c.B, *v...)
	}
}
