package store

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// benchKey returns a cache key shaped like the engine's for an exact
// evaluation of a heterogeneous n = 10 instance, distinct for each i.
func benchKey(i int) string {
	var b strings.Builder
	b.WriteString("n=10|d=4010000000000000|pi=")
	for j := 0; j < 10; j++ {
		if j > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(math.Float64bits(0.5+float64(i*10+j)*1e-9), 16))
	}
	b.WriteString("|r=threshold:3fe3e7a4c37b8f1a|b=exact")
	return b.String()
}

// benchKeys returns n distinct bench keys.
func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = benchKey(i)
	}
	return keys
}

var benchValue = Value{P: 0.5446311396758939, Backend: "exact"}

// BenchmarkDiskPut times one write-through: encoding the record and
// landing it on disk.
func BenchmarkDiskPut(b *testing.B) {
	d, err := OpenDisk(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	keys := benchKeys(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Put(keys[i%len(keys)], benchValue); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiskGet times one disk hit of a restarted process: 512
// entries written by one Disk are looked up through a fresh one.
func BenchmarkDiskGet(b *testing.B) {
	dir := b.TempDir()
	d, err := OpenDisk(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(512)
	for _, k := range keys {
		if err := d.Put(k, benchValue); err != nil {
			b.Fatal(err)
		}
	}
	d.Close()
	if d, err = OpenDisk(dir, nil); err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.Get(keys[i%len(keys)]); !ok {
			b.Fatal("miss")
		}
	}
}
