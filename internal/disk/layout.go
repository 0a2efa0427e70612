package disk

import "fmt"

// Every B⁺-tree page header, skeletal page header and skeletal reopen meta
// carries one layout byte. Pages hold their entries in key order, the one
// in-page layout, so the byte is always written as 0. It stays in the
// format so that every byte offset of older files is unchanged and a file
// stamped with a retired layout fails typed instead of being misread.

// CheckLayoutByte validates a layout byte, returning an error wrapping
// ErrCorrupt for anything but 0. Byte 1 marks the retired Eytzinger layout:
// its pages are well formed but permuted, so reading them as sorted would
// answer wrongly, and the error says to rebuild the index.
func CheckLayoutByte(b byte) error {
	switch b {
	case 0:
		return nil
	case 1:
		return fmt.Errorf("layout byte 1: the Eytzinger page layout is retired, rebuild the index: %w", ErrCorrupt)
	default:
		return fmt.Errorf("invalid layout byte %d: %w", b, ErrCorrupt)
	}
}
