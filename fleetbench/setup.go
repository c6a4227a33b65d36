package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"twosmart/internal/serve"
)

// fleet is one running serving tier plus the offline reference for the
// model it serves.
type fleet struct {
	dir   string
	procs []*proc // every server process: shards, then the gateway
	gw    *proc   // nil unless the workload has a gateway
	entry string  // the address agents dial
	ref   *reference
}

func (f *fleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop()
	}
}

func (f *fleet) alive() error {
	for _, p := range f.procs {
		if err := p.alive(); err != nil {
			return err
		}
	}
	return nil
}

// cpu sums user+system CPU over every server process, and reports the
// gateway's share separately.
func (f *fleet) cpu() (total, gw time.Duration, err error) {
	for _, p := range f.procs {
		c, err := p.cpu()
		if err != nil {
			return 0, 0, err
		}
		total += c
		if p == f.gw {
			gw = c
		}
	}
	return total, gw, nil
}

func (f *fleet) peakRSS() (int64, error) {
	var sum int64
	for _, p := range f.procs {
		r, err := p.peakRSS()
		if err != nil {
			return 0, err
		}
		sum += r
	}
	return sum, nil
}

var envelopeLine = regexp.MustCompile(`stage-0 envelope: threshold=(\S+) budget=(\S+) test-benign passed onward=(\S+)%`)

// setupCost is what one set-up took: wall-clock time, and the CPU time of
// every process involved (the set-up commands to exit, the servers up to
// the first Welcome).
type setupCost struct {
	wall, cpu time.Duration
}

// setup brings the workload's fleet up from nothing: corpus collection
// and training (smartrain, plus the envelope, registry publish and drift
// reference where the workload needs them), server start, and the first
// Welcome on the entry address. The returned cost covers exactly that;
// binaries are already built.
func (b *bench) setup(ctx context.Context, traced bool, tag string) (*fleet, setupCost, error) {
	var cost setupCost
	dir := filepath.Join(b.dir, tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, cost, err
	}
	bin := func(name string) string { return filepath.Join(b.o.bin, name) }
	start := time.Now()
	f := &fleet{dir: dir}
	fail := func(err error) (*fleet, setupCost, error) {
		f.stop()
		return nil, cost, err
	}
	runCmd := func(bin string, args ...string) ([]byte, error) {
		out, cpu, err := run(ctx, dir, bin, args...)
		cost.cpu += cpu
		return out, err
	}
	seed := strconv.FormatInt(b.o.seed, 10)
	train := []string{"-scale", strconv.FormatFloat(trainScale, 'g', -1, 64), "-seed", seed,
		"-runtime", "-model", "det.json", "-quiet"}
	envPath := ""
	if b.w.taps {
		train = append(train, "-envelope", "env.json")
		envPath = filepath.Join(dir, "env.json")
	}
	out, err := runCmd(bin("smartrain"), train...)
	if err != nil {
		return fail(err)
	}
	if m := envelopeLine.FindSubmatch(out); m != nil {
		b.meta["envelope_threshold"], _ = strconv.ParseFloat(string(m[1]), 64)
		b.meta["envelope_budget"], _ = strconv.ParseFloat(string(m[2]), 64)
		pass, _ := strconv.ParseFloat(string(m[3]), 64)
		b.meta["envelope_heldout_benign_pass"] = pass / 100
	}
	traceSample := "0"
	if traced {
		traceSample = "1"
	}
	common := []string{"-addr", "127.0.0.1:0", "-telemetry-addr", "127.0.0.1:0", "-log-json",
		"-trace-sample", traceSample, "-trace-depth", "4096"}
	switch {
	case b.w.taps:
		// A shard mid-rollout: the active version carries the envelope
		// and the drift reference, a second version shadows it, and every
		// scored sample is recorded.
		if _, err := runCmd(bin("smartrain"), "-scale", strconv.FormatFloat(trainScale, 'g', -1, 64),
			"-seed", strconv.FormatInt(b.o.seed+17, 10), "-runtime", "-model", "cand.json", "-quiet"); err != nil {
			return fail(err)
		}
		if _, err := runCmd(bin("smartctl"), "publish", "-registry", "reg", "-model", "det.json",
			"-envelope", "env.json", "-reference", "-seed", seed, "-promote", "-quiet"); err != nil {
			return fail(err)
		}
		if _, err := runCmd(bin("smartctl"), "publish", "-registry", "reg", "-model", "cand.json", "-quiet"); err != nil {
			return fail(err)
		}
		p, err := startProc(ctx, dir, "shard", bin("smartserve"), append(common,
			"-registry", filepath.Join(dir, "reg"), "-shadow", "2", "-cascade-threshold", "0",
			"-samplelog", filepath.Join(dir, "samples"))...)
		if err != nil {
			return fail(err)
		}
		f.procs = append(f.procs, p)
		f.entry = p.addr
	case b.w.gateway:
		var shards []string
		for i := 0; i < 2; i++ {
			p, err := startProc(ctx, dir, fmt.Sprintf("shard%d", i), bin("smartserve"),
				append(common, "-model", filepath.Join(dir, "det.json"), "-shard")...)
			if err != nil {
				return fail(err)
			}
			f.procs = append(f.procs, p)
			shards = append(shards, p.addr)
		}
		gw, err := startProc(ctx, dir, "gateway", bin("smartgw"),
			append(common, "-shards", strings.Join(shards, ","))...)
		if err != nil {
			return fail(err)
		}
		f.procs = append(f.procs, gw)
		f.gw = gw
		f.entry = gw.addr
	default:
		p, err := startProc(ctx, dir, "shard", bin("smartserve"), append(common, "-model", filepath.Join(dir, "det.json"))...)
		if err != nil {
			return fail(err)
		}
		f.procs = append(f.procs, p)
		f.entry = p.addr
	}
	c, err := serve.Dial(ctx, f.entry, "fleetbench-setup")
	if err != nil {
		return fail(fmt.Errorf("first Welcome from %s: %w", f.entry, err))
	}
	c.Close()
	cost.wall = time.Since(start)
	servers, _, err := f.cpu()
	if err != nil {
		return fail(err)
	}
	cost.cpu += servers
	ref, err := loadReference(filepath.Join(dir, "det.json"), envPath)
	if err != nil {
		return fail(err)
	}
	f.ref = ref
	return f, cost, nil
}

// machineMeta records what a result must be read against: the machine,
// the toolchain, the code and the run's parameters.
func machineMeta(o options, w spec) map[string]any {
	m := map[string]any{
		"workload":              w.name,
		"seed":                  o.seed,
		"seconds":               o.seconds,
		"num_cpu":               runtime.NumCPU(),
		"gomaxprocs_generator":  runtime.GOMAXPROCS(0),
		"gomaxprocs_servers":    serverProcs,
		"generator_connections": w.conns,
		"go_version":            runtime.Version(), // run.sh builds the servers with the same go
		"commit":                commit(),
		"source_sha256":         sourceHash(),
		"train_scale":           trainScale,
	}
	return m
}

// commit is the git commit of the checkout, or "unknown" outside a git
// work tree (the source hash identifies the code either way).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash is a SHA-256 over every .go file and go.mod in the checkout
// (the program and the benchmark), in path order.
func sourceHash() string {
	root := os.Getenv("FLEETBENCH_ROOT")
	if root == "" {
		return "unknown"
	}
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
