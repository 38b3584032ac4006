// Command ab compares two commits on the end-to-end benchmark (bench/) in
// paired runs, so that a performance claim carries its noise:
//
//	go run ./cmd/ab -base <rev> [-workload reproduce] [-pairs 10]
//
// (or `make ab BASE=<rev> WORKLOAD=<w> PAIRS=<k>`) compares the committed
// BASE with the committed HEAD, both run with seed 1. Each commit's tree is
// exported with `git archive` into a temporary directory, so the working
// tree and the repository are left as they are, and its bench/ program is
// built against that tree (bench/go.mod replaces repro with ../). The
// pairs alternate which side runs first, and each run lasts the
// run_seconds of the head's BENCHMARK.json. For every end-to-end metric
// it declares, the report gives each side's median and quartiles, the
// change of the medians, the number of pairs in which the head is better,
// and the two-sided sign-test p-value.
//
// Go places functions on 32-byte boundaries, so unrelated code ahead of a
// kernel moves it between two 64-byte phases, and on some hosts the
// phases run at measurably different speeds. Each side is therefore also
// built a second time with one 32-byte function added to the first of the
// module's packages in the binary's layout (a throwaway file in the
// exported tree), which moves every kernel to its other phase. Those builds run in the same pairs; the report prints the
// head's change in that phase too, each side's phase spread (padded
// median against unpadded median), and the phase of a few kernels in all
// four binaries (`go tool nm`). A change is only resolved when it has the
// same sign in both phases, exceeds both sides' phase spread, and the
// pairs of both phases pooled lean its way with a sign-test p below 0.05;
// each metric ends with a `verdict: better | worse | unresolved` line that
// applies this rule.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// seed is the benchmark seed of every run.
const seed = 1

// kernels are the symbols whose 64-byte phase the report lists. `go tool
// nm` names an assembly function with the suffix .abi0.
var kernels = []string{
	"repro/internal/model.feasibleFrom",
	"repro/internal/combin.zetaQuadsSSE2.abi0",
	"repro/internal/combin.zetaPairsSSE2.abi0",
	"repro/internal/dist.volumeLadder",
	"repro/internal/dist.ladderFill",
	"repro/internal/dist.classLadder",
	"repro/internal/dist.scatterClasses",
	"repro/internal/dist.radixLadder",
	"repro/internal/dist.pairSum",
	"repro/internal/response.boxVolume",
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}

// side is one binary under test.
type side struct {
	name   string // base, head, base+pad or head+pad
	commit string
	dir    string // exported tree
	bin    string
	runs   []result
}

// result is the one-line JSON object the benchmark prints last.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// metricSpec is an end-to-end metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "", "base commit (required)")
	workload := fs.String("workload", "reproduce", "benchmark workload")
	pairs := fs.Int("pairs", 10, "number of paired runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" || *pairs < 1 {
		return errors.New("need -base, and -pairs of at least 1")
	}
	top, err := output(".", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	var sides []*side
	for _, s := range []struct{ name, rev string }{{"base", *base}, {"head", "HEAD"}} {
		commit, err := output(top, "git", "rev-parse", "--short", s.rev+"^{commit}")
		if err != nil {
			return err
		}
		sd := &side{name: s.name, commit: commit, dir: filepath.Join(tmp, s.name), bin: filepath.Join(tmp, "bin", s.name)}
		if err := export(top, commit, sd.dir); err != nil {
			return err
		}
		if err := build(sd); err != nil {
			return err
		}
		sides = append(sides, sd)
	}
	for _, sd := range sides[:2] {
		pad := &side{name: sd.name + "+pad", commit: sd.commit, dir: filepath.Join(tmp, sd.name+"-pad"), bin: filepath.Join(tmp, "bin", sd.name+"-pad")}
		if err := export(top, sd.commit, pad.dir); err != nil {
			return err
		}
		if err := addPadding(sd.bin, pad.dir); err != nil {
			return err
		}
		if err := build(pad); err != nil {
			return err
		}
		sides = append(sides, pad)
	}
	specs, seconds, err := readBenchmark(filepath.Join(sides[1].dir, "BENCHMARK.json"))
	if err != nil {
		return err
	}

	workdir := filepath.Join(tmp, "work")
	benchArgs := []string{"--workdir", workdir, "--workload", *workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0", "--json"}
	for i := 0; i < *pairs; i++ {
		// Alternate the order within each pair, and run the padded
		// builds in the same order after the unpadded ones.
		order := []int{0, 1, 2, 3}
		if i%2 == 1 {
			order = []int{1, 0, 3, 2}
		}
		for _, j := range order {
			sd := sides[j]
			r, err := runOnce(sd, tmp, benchArgs)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", i+1, sd.name, err)
			}
			sd.runs = append(sd.runs, r)
			fmt.Fprintf(stderr, "pair %d/%d %-9s cpu_ms_per_op %.4g\n", i+1, *pairs, sd.name, r.Metrics["cpu_ms_per_op"].Value)
		}
	}
	return report(stdout, sides, specs, *workload, *pairs, seconds)
}

// output runs a command in dir and returns its trimmed standard output.
func output(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// export writes the tree of commit into dir.
func export(top, commit, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", "--format=tar", commit)
	archive.Dir = top
	archive.Stderr = os.Stderr
	untar := exec.Command("tar", "-x", "-C", dir)
	untar.Stderr = os.Stderr
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	if err := untar.Start(); err != nil {
		return err
	}
	archiveErr := archive.Run()
	untarErr := untar.Wait()
	if archiveErr != nil {
		return fmt.Errorf("git archive %s: %w", commit, archiveErr)
	}
	if untarErr != nil {
		return fmt.Errorf("tar: %w", untarErr)
	}
	return nil
}

// buildEnv is bench/run.sh's build environment: no downloads, the local
// toolchain.
func buildEnv() []string {
	return append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOTOOLCHAIN=local", "GOTELEMETRY=off")
}

// build compiles the side's bench/ program.
func build(sd *side) error {
	cmd := exec.Command("go", "build", "-o", sd.bin, ".")
	cmd.Dir = filepath.Join(sd.dir, "bench")
	cmd.Env = buildEnv()
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building %s (%s): %w", sd.name, sd.commit, err)
	}
	return nil
}

// symbols returns the text symbols of a binary with their addresses, in
// address order.
func symbols(bin string) ([]string, map[string]uint64, error) {
	out, err := output(".", "go", "tool", "nm", "-n", bin)
	if err != nil {
		return nil, nil, err
	}
	var order []string
	addr := map[string]uint64{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		a, err := strconv.ParseUint(f[0], 16, 64)
		if err != nil {
			continue
		}
		order = append(order, f[2])
		addr[f[2]] = a
	}
	return order, addr, sc.Err()
}

// addPadding adds one 32-byte function (an init that bumps a counter, so
// the linker keeps it) to the first of the module's packages in the
// layout of the unpadded binary bin, in the exported tree dir. Every
// function of the module laid out after it moves by 32 bytes.
func addPadding(bin, dir string) error {
	order, _, err := symbols(bin)
	if err != nil {
		return err
	}
	const module = "repro/"
	for _, sym := range order {
		if !strings.HasPrefix(sym, module) {
			continue
		}
		pkg := sym[:strings.Index(sym[len(module):], ".")+len(module)]
		pkgDir := filepath.Join(dir, filepath.FromSlash(strings.TrimPrefix(pkg, module)))
		name, err := packageName(pkgDir)
		if err != nil {
			return err
		}
		src := fmt.Sprintf("package %s\n\nvar abPadSink int\n\nfunc init() { abPadSink++ }\n", name)
		return os.WriteFile(filepath.Join(pkgDir, "zz_abpad.go"), []byte(src), 0o644)
	}
	return fmt.Errorf("%s: no %s symbols", bin, module)
}

// packageName reads the package clause of a non-test Go file in dir.
func packageName(dir string) (string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return "", err
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "package "); ok {
				return strings.TrimSpace(name), nil
			}
		}
	}
	return "", fmt.Errorf("%s: no package clause", dir)
}

// readBenchmark reads the end-to-end metrics and the run length that
// BENCHMARK.json declares.
func readBenchmark(path string) ([]metricSpec, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var cfg struct {
		RunSeconds int          `json:"run_seconds"`
		EndToEnd   []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	if cfg.RunSeconds < 1 || len(cfg.EndToEnd) == 0 {
		return nil, 0, fmt.Errorf("%s: no run_seconds or end_to_end metrics", path)
	}
	return cfg.EndToEnd, cfg.RunSeconds, nil
}

// runOnce runs the side's benchmark once from its tree and parses the
// result line. A failed correctness check (exit code 1) still yields the
// result; any other failure is an error.
func runOnce(sd *side, tmp string, args []string) (result, error) {
	cmd := exec.Command(sd.bin, args...)
	cmd.Dir = sd.dir
	cmd.Env = append(os.Environ(), "TMPDIR="+filepath.Join(tmp, "work"))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	return r, nil
}

// values returns one metric's value in each of the side's runs.
func (sd *side) values(metric string) []float64 {
	v := make([]float64, len(sd.runs))
	for i, r := range sd.runs {
		v[i] = r.Metrics[metric].Value
	}
	return v
}

// report prints the comparison.
func report(w io.Writer, sides []*side, specs []metricSpec, workload string, pairs, seconds int) error {
	base, head := sides[0], sides[1]
	fmt.Fprintf(w, "A/B %s: base %s, head %s; workload %s, seed %d, %d alternating pairs of %d s runs\n",
		workload, base.commit, head.commit, workload, seed, pairs, seconds)
	fmt.Fprintf(w, "\nkernel address mod 64 (%s):\n", strings.Join(names(sides), ", "))
	var addrs []map[string]uint64
	for _, sd := range sides {
		_, a, err := symbols(sd.bin)
		if err != nil {
			return err
		}
		addrs = append(addrs, a)
	}
	for _, k := range kernels {
		var cells []string
		for _, a := range addrs {
			if v, ok := a[k]; ok {
				cells = append(cells, strconv.FormatUint(v%64, 10))
			} else {
				cells = append(cells, "-")
			}
		}
		fmt.Fprintf(w, "  %-44s %s\n", k, strings.Join(cells, ", "))
	}
	fmt.Fprintln(w)
	for _, m := range specs {
		lower := m.Better != "higher"
		b, h := base.values(m.Name), head.values(m.Name)
		bq1, bmed, bq3 := quartiles(b)
		hq1, hmed, hq3 := quartiles(h)
		better, untied := pairCount(b, h, lower)
		bp, hp := sides[2].values(m.Name), sides[3].values(m.Name)
		_, bpmed, _ := quartiles(bp)
		_, hpmed, _ := quartiles(hp)
		pb, pu := pairCount(bp, hp, lower)
		delta, deltaOther := pct(hmed, bmed), pct(hpmed, bpmed)
		spreadBase, spreadHead := pct(bpmed, bmed), pct(hpmed, hmed)
		fmt.Fprintf(w, "%s (%s, %s is better)\n", m.Name, m.Unit, m.Better)
		fmt.Fprintf(w, "  base median %.6g [IQR %.6g–%.6g]; head median %.6g [IQR %.6g–%.6g]\n", bmed, bq1, bq3, hmed, hq1, hq3)
		fmt.Fprintf(w, "  head − base %+.2f%% of base; head better in %d of %d untied pairs; sign test p = %.3g\n",
			delta, better, untied, signTest(better, untied))
		fmt.Fprintf(w, "  other phase: head − base %+.2f%%, head better in %d of %d; phase spread base %+.2f%%, head %+.2f%%\n",
			deltaOther, pb, pu, spreadBase, spreadHead)
		fmt.Fprintf(w, "  pooled: head better in %d of %d untied pairs; sign test p = %.3g\n",
			better+pb, untied+pu, signTest(better+pb, untied+pu))
		fmt.Fprintf(w, "  verdict: %s\n", verdict(delta, deltaOther, spreadBase, spreadHead, better+pb, untied+pu, lower))
	}
	fmt.Fprintln(w)
	for _, sd := range sides {
		attempted, failed, correct := 0, 0, true
		for _, r := range sd.runs {
			attempted += r.Attempted
			failed += r.Failed
			correct = correct && r.Correct
		}
		fmt.Fprintf(w, "%-9s %d runs, %d of %d operations failed, every check correct: %v\n", sd.name, len(sd.runs), failed, attempted, correct)
	}
	return nil
}

// pct is (v − ref)/ref in percent.
func pct(v, ref float64) float64 {
	if ref == 0 {
		return math.NaN()
	}
	return 100 * (v - ref) / ref
}

func names(sides []*side) []string {
	out := make([]string, len(sides))
	for i, sd := range sides {
		out[i] = sd.name
	}
	return out
}
