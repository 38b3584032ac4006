package main

import (
	"flag"
	"fmt"

	"repro/internal/store"
)

// cmdCache inspects, garbage-collects, or purges a persistent
// result-cache directory — the disk tier the other subcommands fill
// through -cache-dir.
//
//	nocomm cache -cache-dir results.cache               print stats
//	nocomm cache -cache-dir results.cache -max-age 72h  drop segments last written over 72h ago
//	nocomm cache -cache-dir results.cache -max-bytes N  drop oldest segments until N bytes remain
//	nocomm cache -cache-dir results.cache -purge        delete every entry
func cmdCache(g *obsFlags, args []string) (err error) {
	fs := flag.NewFlagSet("cache", flag.ContinueOnError)
	g.register(fs)
	dir := fs.String("cache-dir", "", "persistent result-cache directory to inspect")
	purge := fs.Bool("purge", false, "delete every cached entry (and the quarantine) instead of printing stats")
	maxAge := fs.Duration("max-age", 0, "garbage-collect segment files last written longer than this ago, with every entry in them (0 = no age bound)")
	maxBytes := fs.Int64("max-bytes", -1, "garbage-collect the oldest segment files until the live entries fit in this many bytes (-1 = no size bound)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("cache needs -cache-dir (the directory other subcommands filled via -cache-dir)")
	}
	if *purge && (*maxAge > 0 || *maxBytes >= 0) {
		return fmt.Errorf("cache: -purge and -max-age/-max-bytes are mutually exclusive")
	}
	if *maxAge < 0 {
		return fmt.Errorf("cache: -max-age must be non-negative, got %v", *maxAge)
	}
	sess, err := g.start()
	if err != nil {
		return err
	}
	defer sess.finish(&err)
	d, err := store.OpenDisk(*dir, sess.observer)
	if err != nil {
		return err
	}
	if *purge {
		entries, bytes, err := d.Purge()
		if err != nil {
			return err
		}
		fmt.Printf("purged %d entries (%d bytes) from %s\n", entries, bytes, *dir)
		return nil
	}
	if *maxAge > 0 || *maxBytes >= 0 {
		entries, bytes, err := d.GC(*maxAge, *maxBytes)
		if err != nil {
			return err
		}
		st := d.Stats()
		fmt.Printf("gc %s: purged %d entries (%d bytes), %d entries (%d bytes) remain\n",
			*dir, entries, bytes, st.Entries, st.Bytes)
		return nil
	}
	st := d.Stats()
	fmt.Printf("cache %s\n", st.Dir)
	fmt.Printf("  entries: %d\n", st.Entries)
	fmt.Printf("  bytes:   %d\n", st.Bytes)
	if ratio, ok := st.HitRatio(); ok {
		fmt.Printf("  hit ratio: %.3f (%d hits / %d lookups since open)\n", ratio, st.Hits, st.Hits+st.Misses)
	} else {
		fmt.Printf("  hit ratio: n/a (no lookups since open)\n")
	}
	return nil
}
