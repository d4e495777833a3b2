package des

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
)

func appendU64(enc *checkpoint.Enc, v *uint64) { enc.U64(*v) }

func decodeU64(d *checkpoint.Dec, v *uint64) error {
	*v = d.U64()
	return nil
}

// tableState returns the state of a table that got n records, tagged
// with their index plus one, and put back every one whose index is a
// multiple of k, in descending order.
func tableState(n, k int) []byte {
	var t Table[uint64]
	args := make([][]byte, n)
	for i := range args {
		rec, arg := t.Get()
		*rec = uint64(i + 1)
		args[i] = arg
	}
	for i := n - 1; i >= 0; i -= k {
		t.Put(args[i])
	}
	var enc checkpoint.Enc
	t.AppendState(&enc, appendU64)
	return enc.Bytes()
}

// TestTableStateRoundTrip pins what a restored table is: the same
// records under the same indices, and the same indices handed out next,
// in the same order, as the table it was cut from.
func TestTableStateRoundTrip(t *testing.T) {
	var a Table[uint64]
	var args [][]byte
	for i := range 40 {
		rec, arg := a.Get()
		*rec = uint64(100 + i)
		args = append(args, arg)
	}
	a.Put(args[3])
	a.Put(args[39])
	a.Put(args[0])
	var enc checkpoint.Enc
	a.AppendState(&enc, appendU64)
	var b Table[uint64]
	d := checkpoint.NewDec(enc.Bytes())
	if err := b.RestoreState(d, decodeU64); err != nil || d.Remaining() != 0 {
		t.Fatalf("RestoreState: %v, %d bytes left", err, d.Remaining())
	}
	for i, arg := range args {
		if i != 0 && i != 3 && i != 39 && *b.At(arg) != uint64(100+i) {
			t.Fatalf("record %d restored as %d", i, *b.At(arg))
		}
	}
	for range 30 {
		ra, argA := a.Get()
		rb, argB := b.Get()
		if string(argA) != string(argB) || *ra != 0 || *rb != 0 {
			t.Fatalf("restored table handed out %x (record %d), the original %x (record %d)", argB, *rb, argA, *ra)
		}
	}
}

// FuzzTableState offers arbitrary bytes to Table.RestoreState. Each must
// be refused, leaving the table as it was, or restore a table whose
// AppendState gives the bytes read back, whose every index handed out
// next names a free, zero record, and whose restore allocated in
// proportion to the input, never a slot count's worth of it.
func FuzzTableState(f *testing.F) {
	for _, s := range [][]byte{tableState(0, 1), tableState(5, 2), tableState(32, 1), tableState(70, 3)} {
		f.Add(s)
		f.Add(s[:len(s)/2])
		f.Add(s[:max(len(s)-1, 0)])
	}
	var bomb, twice checkpoint.Enc
	bomb.U64(1 << 40)
	bomb.U64(0)
	twice.Int(32)
	twice.Int(2)
	twice.U64(7)
	twice.U64(7)
	f.Add(bomb.Bytes())
	f.Add(twice.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		var tb Table[uint64]
		_, arg := tb.Get()
		d := checkpoint.NewDec(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tb.RestoreState(d, decodeU64)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16+64*uint64(len(data)) {
			t.Fatalf("restoring %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			if len(tb.slots) != tableBlock || len(tb.free) != tableBlock-1 || binary.LittleEndian.Uint32(arg) != 0 {
				t.Fatal("a refused state changed the table")
			}
			return
		}
		read := data[:len(data)-d.Remaining()]
		var enc checkpoint.Enc
		tb.AppendState(&enc, appendU64)
		if string(enc.Bytes()) != string(read) {
			t.Fatalf("restored state\n %x\ncame back as\n %x", read, enc.Bytes())
		}
		live := len(tb.slots) - len(tb.free)
		seen := make(map[uint32]bool)
		for range len(tb.free) + 1 {
			rec, arg := tb.Get()
			i := binary.LittleEndian.Uint32(arg)
			if seen[i] || *rec != 0 {
				t.Fatalf("Get handed out index %d again or a live record (%d)", i, *rec)
			}
			seen[i] = true
		}
		if got := len(tb.slots) - len(tb.free); got != live+len(seen) {
			t.Fatalf("%d records in use after %d Gets from %d live", got, len(seen), live)
		}
	})
}
