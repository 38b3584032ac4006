package store

import (
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDecodeEntry feeds arbitrary bytes to the entry decoder: it must
// never panic, and it must never accept bytes whose checksum does not
// cover the payload it returns. Seeds cover a valid entry plus each
// header field mutated.
func FuzzDecodeEntry(f *testing.F) {
	valid, err := EncodeEntry("seed|key", Value{P: 0.5, Backend: "exact"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("NCSE"))
	short := append([]byte(nil), valid[:headerSize]...)
	f.Add(short)
	for _, v := range []uint32{EntryVersion - 1, EntryVersion + 1} {
		badVersion := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(badVersion[4:8], v)
		f.Add(badVersion)
	}
	badLen := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(badLen[8:16], 1<<40)
	f.Add(badLen)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeEntry(data, "seed|key")
		if err != nil {
			return
		}
		// Anything the decoder accepts must be a structurally complete
		// entry: header plus the declared payload.
		if len(data) < headerSize {
			t.Fatalf("accepted %d bytes, below the header size", len(data))
		}
		_ = v
	})
}

// FuzzDiskGet plants arbitrary bytes as a segment and checks the full
// open-and-lookup path: never a panic, and a served value is always what
// DecodeEntry(…, key) makes of the indexed record's bytes. Every indexed
// record lies inside the segment and decodes under the key it is indexed
// by, and the accounting counts exactly the indexed records.
func FuzzDiskGet(f *testing.F) {
	const key = "fuzz|key"
	valid, err := EncodeEntry(key, Value{P: 0.25, Backend: "exact"})
	if err != nil {
		f.Fatal(err)
	}
	other, err := EncodeEntry("other|key", Value{P: 0.75, Backend: "exact"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("garbage"))
	f.Add(valid[:headerSize])
	mangled := append([]byte(nil), valid...)
	mangled[headerSize] ^= 0xFF
	f.Add(mangled)
	f.Add(valid)
	f.Add(append(append([]byte(nil), other...), valid...))
	f.Add(append(append([]byte(nil), valid...), valid[:len(valid)-3]...))
	f.Add(append(append([]byte(nil), mangled...), valid...))
	f.Add(append([]byte("junk"), valid...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-fuzz"+entryExt), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDisk(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		var bytes int64
		for sum, l := range d.index {
			if l.off < 0 || l.off+int64(l.n) > int64(len(data)) {
				t.Fatalf("indexed record [%d, +%d) outside the %d-byte segment", l.off, l.n, len(data))
			}
			ent, err := decodeEntry(data[l.off : l.off+int64(l.n)])
			if err != nil || sha256.Sum256([]byte(ent.Key)) != sum {
				t.Fatalf("indexed record does not decode under its digest: %v", err)
			}
			bytes += int64(l.n)
		}
		if st := d.Stats(); st.Entries != len(d.index) || st.Bytes != bytes {
			t.Fatalf("Stats = %+v, index holds %d records of %d bytes", st, len(d.index), bytes)
		}
		l, indexed := d.index[sha256.Sum256([]byte(key))]
		v, ok := d.Get(key)
		if ok != indexed {
			t.Fatalf("Get = %v, indexed = %v", ok, indexed)
		}
		if !ok {
			return
		}
		want, err := DecodeEntry(data[l.off:l.off+int64(l.n)], key)
		if err != nil {
			t.Fatalf("served a record that fails DecodeEntry: %v", err)
		}
		if !reflect.DeepEqual(v, want) {
			t.Fatalf("served %+v, the record decodes to %+v", v, want)
		}
	})
}
