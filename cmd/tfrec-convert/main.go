// Command tfrec-convert rewrites a model file into the current TFRECMDL
// v4 flat layout: the memory-mappable format that tfrec-serve loads in
// O(1) time regardless of catalog size. Input may be any loadable model
// file — the legacy headerless gob, the headered v1-v3 gob generations,
// or an existing v4 file (useful to re-fold biases after a manual edit).
//
// Usage:
//
//	tfrec-convert -in model.gob -out model.tfrec
//
// Conversion is verified by default: the written file is loaded back and
// every raw factor matrix must match the source bitwise, then the file is
// memory-mapped the way tfrec-serve would map it (checksums validated,
// sections wrapped zero-copy). -verify=false skips both checks.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/model"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tfrec-convert: ")

	in := flag.String("in", "", "source model file (legacy gob, v1-v3 gob, or v4 flat)")
	out := flag.String("out", "model.tfrec", "destination v4 flat file")
	verify := flag.Bool("verify", true, "load the written file back and check it matches the source bitwise, then mmap it")
	flag.Parse()
	if *in == "" {
		log.Fatal("-in is required")
	}
	if err := convert(*in, *out, *verify, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// convert loads in, writes it as a v4 flat file at out, and (with verify)
// proves the written file both round-trips bitwise and loads on the
// serving path.
func convert(in, out string, verify bool, w io.Writer) error {
	inf, err := os.Open(in)
	if err != nil {
		return err
	}
	inStat, err := inf.Stat()
	if err != nil {
		inf.Close()
		return err
	}
	start := time.Now()
	m, err := model.Load(inf)
	inf.Close()
	if err != nil {
		return fmt.Errorf("load %s: %w", in, err)
	}
	loadDur := time.Since(start)
	// inspect the source before writing: out may be the same path
	info, err := model.InspectFile(in)
	if err != nil {
		return err
	}
	srcFormat := fmt.Sprintf("v%d gob", info.Version)
	if info.Legacy {
		srcFormat = "legacy headerless gob"
	} else if info.Version == 4 {
		srcFormat = "v4 flat"
	}

	// Temp-file-and-rename, not os.Create: out may be a model that
	// tfrec-serve currently mmaps (or equal to in), and truncating either
	// in place would SIGBUS the server / destroy the source mid-read.
	outf, err := os.CreateTemp(filepath.Dir(out), "."+filepath.Base(out)+".tmp-*")
	if err != nil {
		return err
	}
	start = time.Now()
	if err := m.Save(outf); err != nil {
		outf.Close()
		os.Remove(outf.Name())
		return fmt.Errorf("save %s: %w", out, err)
	}
	if err := outf.Close(); err != nil {
		os.Remove(outf.Name())
		return err
	}
	if err := os.Rename(outf.Name(), out); err != nil {
		os.Remove(outf.Name())
		return err
	}
	saveDur := time.Since(start)
	outStat, err := os.Stat(out)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%s (%s, %d bytes, loaded in %s) -> %s (v4 flat, %d bytes, written in %s)\n",
		in, srcFormat, inStat.Size(), loadDur, out, outStat.Size(), saveDur)

	if !verify {
		return nil
	}
	vf, err := os.Open(out)
	if err != nil {
		return err
	}
	back, err := model.Load(vf)
	vf.Close()
	if err != nil {
		return fmt.Errorf("verify: reload %s: %w", out, err)
	}
	if back.User.MaxAbsDiff(m.User) != 0 || back.Node.MaxAbsDiff(m.Node) != 0 ||
		back.Next.MaxAbsDiff(m.Next) != 0 || back.Bias.MaxAbsDiff(m.Bias) != 0 {
		return fmt.Errorf("verify: %s does not match %s bitwise", out, in)
	}
	sn, err := model.LoadFile(out)
	if err != nil {
		return fmt.Errorf("verify: mmap %s: %w", out, err)
	}
	mapped := sn.Mapped
	sn.Close()
	fmt.Fprintf(w, "verified: bitwise round trip ok, serving load ok (mapped=%v)\n", mapped)
	return nil
}
