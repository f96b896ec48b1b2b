package datum

// Lossless value/row encoding for spill files. The key encoding (AppendKey)
// is collision-safe only up to DistinctEqual — it normalizes INT 3 and FLOAT
// 3.0 to the same bytes and collapses every NULL to one tag — so spilled
// rows, which must round-trip exactly (type, typed-NULL, int-vs-float),
// use this separate self-delimiting encoding instead.
//
// Per value: one tag byte (bits 0-2 type, bit 3 NULL, bit 4 bool payload),
// then the payload: INT and FLOAT as 8 bytes little-endian, VARCHAR as
// uvarint length + bytes, NULL and BOOLEAN with no payload. A row is a
// uvarint column count followed by its values.

import (
	"fmt"
	"math"
)

const (
	encNullBit = 0x08
	encBoolBit = 0x10
	encTypeMax = 0x07
)

// AppendEncoded appends d's lossless encoding to buf.
func (d D) AppendEncoded(buf []byte) []byte {
	tag := byte(d.T) & encTypeMax
	if d.Null {
		return append(buf, tag|encNullBit)
	}
	switch d.T {
	case TNull:
		return append(buf, tag|encNullBit)
	case TInt:
		u := uint64(d.I)
		return append(buf, tag,
			byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	case TFloat:
		u := math.Float64bits(d.F)
		return append(buf, tag,
			byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	case TString:
		buf = append(buf, tag)
		buf = appendUvarint(buf, uint64(len(d.S)))
		return append(buf, d.S...)
	case TBool:
		if d.B {
			return append(buf, tag|encBoolBit)
		}
		return append(buf, tag)
	}
	return append(buf, byte(TNull)|encNullBit)
}

// DecodeValue decodes one value from buf, returning it and the remaining
// bytes.
func DecodeValue(buf []byte) (D, []byte, error) {
	if len(buf) == 0 {
		return D{}, nil, fmt.Errorf("datum: decode value: empty buffer")
	}
	tag := buf[0]
	buf = buf[1:]
	t := Type(tag & encTypeMax)
	if t > TBool {
		return D{}, nil, fmt.Errorf("datum: decode value: bad type tag %d", t)
	}
	if tag&encNullBit != 0 {
		return D{T: t, Null: true}, buf, nil
	}
	switch t {
	case TNull:
		return D{T: TNull, Null: true}, buf, nil
	case TInt, TFloat:
		if len(buf) < 8 {
			return D{}, nil, fmt.Errorf("datum: decode value: truncated numeric")
		}
		u := uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 | uint64(buf[3])<<24 |
			uint64(buf[4])<<32 | uint64(buf[5])<<40 | uint64(buf[6])<<48 | uint64(buf[7])<<56
		buf = buf[8:]
		if t == TInt {
			return Int(int64(u)), buf, nil
		}
		return Float(math.Float64frombits(u)), buf, nil
	case TString:
		n, rest, err := decodeUvarint(buf)
		if err != nil {
			return D{}, nil, fmt.Errorf("datum: decode value: %w", err)
		}
		if uint64(len(rest)) < n {
			return D{}, nil, fmt.Errorf("datum: decode value: truncated string")
		}
		return String(string(rest[:n])), rest[n:], nil
	case TBool:
		return Bool(tag&encBoolBit != 0), buf, nil
	}
	return D{}, nil, fmt.Errorf("datum: decode value: unreachable tag %#x", tag)
}

// AppendEncodedRow appends r's lossless encoding (uvarint column count, then
// each value) to buf.
func AppendEncodedRow(buf []byte, r Row) []byte {
	buf = appendUvarint(buf, uint64(len(r)))
	for _, d := range r {
		buf = d.AppendEncoded(buf)
	}
	return buf
}

// DecodeRow decodes one row from buf, returning it and the remaining bytes.
func DecodeRow(buf []byte) (Row, []byte, error) {
	n, rest, err := decodeUvarint(buf)
	if err != nil {
		return nil, nil, fmt.Errorf("datum: decode row: %w", err)
	}
	row := make(Row, n)
	for i := range row {
		row[i], rest, err = DecodeValue(rest)
		if err != nil {
			return nil, nil, err
		}
	}
	return row, rest, nil
}

func decodeUvarint(buf []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(buf); i++ {
		b := buf[i]
		if i >= 9 {
			return 0, nil, fmt.Errorf("uvarint overflow")
		}
		v |= uint64(b&0x7f) << (7 * uint(i))
		if b < 0x80 {
			return v, buf[i+1:], nil
		}
	}
	return 0, nil, fmt.Errorf("truncated uvarint")
}

// AppendEncoded appends the aggregate accumulator's state so a spilled
// group-by partition can be paged back in without losing precision (the
// int/float sum split and the typed extreme value are preserved exactly).
func (s *AggState) AppendEncoded(buf []byte) []byte {
	buf = append(buf, byte(s.Kind))
	buf = appendUvarint(buf, uint64(s.count))
	u := uint64(s.sumI)
	buf = append(buf,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	f := math.Float64bits(s.sumF)
	buf = append(buf,
		byte(f), byte(f>>8), byte(f>>16), byte(f>>24),
		byte(f>>32), byte(f>>40), byte(f>>48), byte(f>>56))
	if s.isFloat {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return s.extreme.AppendEncoded(buf)
}

// DecodeAggState decodes an accumulator encoded by AppendEncoded, returning
// it and the remaining bytes.
func DecodeAggState(buf []byte) (*AggState, []byte, error) {
	if len(buf) < 1 {
		return nil, nil, fmt.Errorf("datum: decode agg state: empty buffer")
	}
	s := &AggState{Kind: AggKind(buf[0])}
	count, rest, err := decodeUvarint(buf[1:])
	if err != nil {
		return nil, nil, fmt.Errorf("datum: decode agg state: %w", err)
	}
	s.count = int64(count)
	if len(rest) < 17 {
		return nil, nil, fmt.Errorf("datum: decode agg state: truncated sums")
	}
	s.sumI = int64(uint64(rest[0]) | uint64(rest[1])<<8 | uint64(rest[2])<<16 | uint64(rest[3])<<24 |
		uint64(rest[4])<<32 | uint64(rest[5])<<40 | uint64(rest[6])<<48 | uint64(rest[7])<<56)
	s.sumF = math.Float64frombits(uint64(rest[8]) | uint64(rest[9])<<8 | uint64(rest[10])<<16 | uint64(rest[11])<<24 |
		uint64(rest[12])<<32 | uint64(rest[13])<<40 | uint64(rest[14])<<48 | uint64(rest[15])<<56)
	s.isFloat = rest[16] != 0
	s.extreme, rest, err = DecodeValue(rest[17:])
	if err != nil {
		return nil, nil, err
	}
	return s, rest, nil
}

// MemBytes is a coarse resident-size estimate of the datum for memory
// accounting: struct size plus string payload.
func (d D) MemBytes() int64 {
	return 40 + int64(len(d.S))
}

// RowMemBytes estimates the resident size of a row (slice header, backing
// array, string payloads) for memory accounting.
func RowMemBytes(r Row) int64 {
	n := int64(24)
	for _, d := range r {
		n += d.MemBytes()
	}
	return n
}
