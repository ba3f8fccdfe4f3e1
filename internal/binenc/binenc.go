// Package binenc is the field walker under the binary snapshot codec
// (command.Snapshot.Canonical). A type describes its encoding once, as
// calls on a Codec in field order, and that one description both writes
// the fields and reads them back, so the two cannot drift apart. The
// encoding is canonical — integers are minimal varints, bools 0 or 1,
// floats their raw IEEE-754 bits — and decoding refuses anything else, so
// bytes that decode re-encode to themselves.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrMalformed is wrapped by every decoding failure.
var ErrMalformed = errors.New("malformed binary snapshot")

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

// Fail records a decoding failure found by the caller.
func (c *Codec) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
}

// take consumes n bytes of input, nil once decoding has failed.
func (c *Codec) take(n int) []byte {
	if c.err == nil && n > len(c.B) {
		c.Fail("truncated")
	}
	if c.err != nil {
		return nil
	}
	b := c.B[:n]
	c.B = c.B[n:]
	return b
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

// Uint64 walks eight little-endian bytes.
func (c *Codec) Uint64(v *uint64) {
	if !c.dec {
		c.B = binary.LittleEndian.AppendUint64(c.B, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

// Float walks a float's raw bits.
func (c *Codec) Float(v *float64) {
	u := math.Float64bits(*v)
	if c.Uint64(&u); c.dec {
		*v = math.Float64frombits(u)
	}
}

// Bool walks one byte, 0 or 1.
func (c *Codec) Bool(v *bool) {
	if !c.dec {
		c.B = append(c.B, 0)
		if *v {
			c.B[len(c.B)-1] = 1
		}
	} else if b := c.take(1); b != nil {
		if *v = b[0] == 1; b[0] > 1 {
			c.Fail("bool byte %d", b[0])
		}
	}
}

// Len walks an element count: n, encoding; decoding, the count read —
// refused, before anything is allocated for it, when the input left could
// not hold that many elements of at least elemBytes each.
func (c *Codec) Len(n, elemBytes int) int {
	u := uint64(n)
	if c.Uvarint(&u); c.dec && u > uint64(len(c.B)/elemBytes) {
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

// Str walks a string: a length and the bytes.
func Str[T ~string](c *Codec, v *T) {
	if n := c.Len(len(*v), 1); c.dec {
		*v = T(c.take(n))
	} else {
		c.B = append(c.B, *v...)
	}
}
