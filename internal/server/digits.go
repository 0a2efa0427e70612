package server

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// The integer kernel of the response encoder. It writes exactly the bytes
// strconv.AppendInt and strconv.AppendUint write in base 10 — the bytes
// encoding/json writes for int64 and uint64 — eight digits per 64-bit
// word instead of two per loop iteration: digits8 splits a value below
// 10^8 into its eight decimal digits with multiply-shift divisions done on
// all lanes of one word at once (SWAR, "SIMD within a register"), and one
// 8-byte store writes them. FuzzResponseEncode and TestEncodeDigitBoundaries
// hold it to encoding/json.

// zeroDigits is '0' in every byte of a word.
const zeroDigits = 0x3030_3030_3030_3030

// digitPairs is "00" through "99": the 1- or 2-digit head of a 9- or
// 10-digit value.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// maxIntLen is the longest decimal integer the kernel writes: 20 bytes,
// for MinInt64 and MaxUint64 alike.
const maxIntLen = 20

// digits8 returns v < 10^8 as eight decimal digit values (0-9, not yet
// ASCII), most significant first in little-endian byte order, so that
// binary.LittleEndian.PutUint64 of the word plus zeroDigits writes v
// zero-padded to eight characters. Every division is a multiply and a
// shift exact for the lane's range: x/100 = x·10486 >> 20 for x < 10^4,
// x/10 = x·103 >> 10 for x < 100.
func digits8(v uint64) uint64 {
	// Two 4-digit lanes in 32 bits each, the leading half in the low lane.
	x := v/10000 | v%10000<<32
	// Four 2-digit lanes in 16 bits each.
	hi := x * 10486 >> 20 & 0x7f_0000_007f
	x = (x-100*hi)<<16 | hi
	// Eight 1-digit lanes in 8 bits each.
	tens := x * 103 >> 10 & 0x000f_000f_000f_000f
	return (x-10*tens)<<8 | tens
}

// appendInt appends v in decimal, as strconv.AppendInt(b, v, 10) does.
func appendInt(b []byte, v int64) []byte {
	u := uint64(v)
	if v < 0 {
		b = append(b, '-')
		u = -u
	}
	return appendUint(b, u)
}

// appendUint appends v in decimal, as strconv.AppendUint(b, v, 10) does.
// A value below 10^8 is one word with its leading zeros shifted out; 9 or
// 10 digits are a head of one or two from digitPairs and one word; longer
// values write their leading v/10^8 first, recursively.
func appendUint(b []byte, v uint64) []byte {
	// Every path stores a whole word past len(b), so it needs room for
	// the longest value plus a word's overhang.
	if cap(b)-len(b) < maxIntLen+8 {
		b = slices.Grow(b, maxIntLen+8)
	}
	if v < 1e8 {
		d := digits8(v)
		// Skip the leading zero digits, keeping the last even for 0: the
		// bit at 56 caps the count at 7.
		skip := bits.TrailingZeros64(d|1<<56) / 8
		n := len(b)
		binary.LittleEndian.PutUint64(b[n:n+8], (d|zeroDigits)>>(8*skip))
		return b[:n+8-skip]
	}
	if hi := v / 1e8; hi < 10 {
		b = append(b, byte('0'+hi))
	} else if hi < 100 {
		b = append(b, digitPairs[2*hi], digitPairs[2*hi+1])
	} else {
		b = appendUint(b, hi)
	}
	n := len(b)
	binary.LittleEndian.PutUint64(b[n:n+8], digits8(v%1e8)|zeroDigits)
	return b[:n+8]
}
