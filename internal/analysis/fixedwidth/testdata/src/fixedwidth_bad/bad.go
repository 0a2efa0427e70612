// Package fixedwidth_bad commits every encoding sin the fixedwidth analyzer
// reports: reflect-based binary codecs, varints, reflection serializers, and
// magic record sizes handed to the disk chain helpers.
package fixedwidth_bad

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"

	"pathcache/internal/disk"
)

type header struct {
	Count uint32
	Next  uint64
}

func encodeReflect(buf *bytes.Buffer, h header) error {
	return binary.Write(buf, binary.LittleEndian, h) // want `reflect-based binary\.Write`
}

func decodeReflect(buf *bytes.Buffer, h *header) error {
	return binary.Read(buf, binary.LittleEndian, h) // want `reflect-based binary\.Read`
}

func encodeVarint(dst []byte, v int64) int {
	return binary.PutVarint(dst, v) // want `binary\.PutVarint is a variable-width encoding`
}

func appendVar(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v) // want `binary\.AppendUvarint is a variable-width encoding`
}

func encodeGob(buf *bytes.Buffer, h header) error {
	enc := gob.NewEncoder(buf) // want `reflection codec gob\.NewEncoder`
	return enc.Encode(h)       // want `reflection codec gob\.Encode`
}

func encodeJSON(h header) ([]byte, error) {
	return json.Marshal(h) // want `reflection codec json\.Marshal`
}

func chainMagic(p disk.Pager, head disk.PageID) (int, error) {
	return disk.ScanChain(p, 24, head, func([]byte) bool { return true }) // want `magic record size 24 passed to disk\.ScanChain`
}

func capMagic(pageSize int) int {
	return disk.ChainCap(pageSize, 48) // want `magic record size 48 passed to disk\.ChainCap`
}

func writerMagic(p disk.Pager) (*disk.ChainWriter, error) {
	return disk.NewChainWriter(p, 32) // want `magic record size 32 passed to disk\.NewChainWriter`
}
