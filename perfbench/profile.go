package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// cpuProfile is a CPU profile being written to a file.
type cpuProfile struct {
	f *os.File
}

func startProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return &cpuProfile{f: f}, nil
}

// stop ends the profile and reads its samples back.
func (p *cpuProfile) stop() (profileSamples, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return readProfile(p.f.Name())
}

// sample is one stack of a CPU profile.
type sample struct {
	ns    int64
	role  string   // value of the "role" goroutine label, if any
	stack []string // function names, leaf first
}

type profileSamples []sample

// readProfile decodes a CPU profile with the installed `go tool pprof`
// (its -traces text form lists every stack with its labels), so the
// benchmark needs no profile-format dependency.
func readProfile(path string) (profileSamples, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %v: %s", path, err, errb.String())
	}
	return parseTraces(out.String())
}

// parseTraces parses `go tool pprof -traces` output: a header, then one
// block per stack, each opened by a "-----------+---" line. A block
// holds "key:  value" label lines, then "<value>   <leaf function>" and
// one caller function per following line.
func parseTraces(text string) (profileSamples, error) {
	var out profileSamples
	var role string
	inBlock, inStack := false, false
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inBlock, inStack, role = true, false, ""
			continue
		}
		fields := strings.Fields(strings.TrimSuffix(line, " (inline)"))
		if !inBlock || len(fields) == 0 {
			continue
		}
		switch {
		case inStack:
			s := &out[len(out)-1]
			s.stack = append(s.stack, strings.Join(fields, " "))
		case strings.HasSuffix(fields[0], ":"):
			if fields[0] == "role:" && len(fields) > 1 {
				role = fields[1]
			}
		default:
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: unexpected line %q", line)
			}
			out = append(out, sample{ns: int64(d), role: role, stack: []string{strings.Join(fields[1:], " ")}})
			inStack = true
		}
	}
	return out, sc.Err()
}

// pkgOf returns the import path of a profiled function's package, e.g.
// "skiptrie/internal/dcss" for "skiptrie/internal/dcss.(*Atom).Load".
func pkgOf(fn string) string {
	name := fn
	if i := strings.IndexAny(name, "(["); i >= 0 {
		name = name[:i] // receiver or type arguments may hold '/' and '.'
	}
	slash := strings.LastIndexByte(name, '/')
	if i := strings.IndexByte(name[slash+1:], '.'); i >= 0 {
		return fn[:slash+1+i]
	}
	return strings.TrimSuffix(name, ".")
}

// layers names the layers CPU time is charged to, by package.
var layers = map[string]string{
	"skiptrie/internal/dcss":       "dcss",
	"skiptrie/internal/splitorder": "splitorder",
	"skiptrie/internal/xfast":      "xfast",
	"skiptrie/internal/skiplist":   "skiplist",
	"skiptrie/internal/core":       "core",
	"skiptrie":                     "api",
	"skiptrie/internal/shard":      "shard",
	"skiptrie/internal/reshard":    "reshard",
	"skiptrie/internal/server":     "server",
	"skiptrie/internal/wire":       "wire",
	"bufio":                        "wire",
	"net":                          "net",
	"internal/poll":                "net",
	"syscall":                      "net",
	"internal/syscall/unix":        "net",
	"main":                         "bench",
	"skiptrie/internal/workload":   "bench", // the benchmark's value generator
	"runtime/pprof":                "bench",
}

// helpers are packages a layer calls into for general services. A
// sample whose leaf frame is in one of them, or in an assembly body
// with no package qualifier (internal/bytealg's memeqbody, cmpbody),
// is charged to its nearest caller in a named package instead.
var helpers = map[string]bool{
	"sync":                       true,
	"sync/atomic":                true,
	"internal/sync":              true,
	"time":                       true,
	"sort":                       true,
	"slices":                     true,
	"math/rand":                  true,
	"math/bits":                  true,
	"encoding/binary":            true,
	"io":                         true,
	"internal/runtime/syscall":   true, // the raw system call, under net or runtime
	"skiptrie/internal/stats":    true,
	"skiptrie/internal/uintbits": true,
	"skiptrie/internal/gid":      true,
}

// layerNames lists every layer in report order; "other" collects stacks
// whose leaf is in a package neither named nor a helper.
var layerNames = []string{"dcss", "splitorder", "xfast", "skiplist", "core", "api", "shard", "reshard",
	"server", "wire", "net", "runtime", "bench", "other"}

func layerOfPkg(pkg string) string {
	if l, ok := layers[pkg]; ok {
		return l
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return ""
}

func isHelper(fn string) bool {
	return helpers[pkgOf(fn)] || !strings.Contains(fn, ".")
}

// layerOf charges a stack to the layer of its leaf frame's package.
// Helper frames are skipped; the first frame that is not a helper
// decides, and a package that is not named makes it "other".
func layerOf(stack []string) string {
	for _, fn := range stack {
		if isHelper(fn) {
			continue
		}
		if l := layerOfPkg(pkgOf(fn)); l != "" {
			return l
		}
		return "other"
	}
	return "other"
}

// otherPkg returns the package that makes layerOf charge a stack to
// "other", for the diagnostic line.
func otherPkg(stack []string) string {
	for _, fn := range stack {
		if !isHelper(fn) {
			return pkgOf(fn)
		}
	}
	return "(helpers only)"
}

// inStack reports whether any frame of the stack satisfies match.
func inStack(stack []string, match func(fn string) bool) bool {
	for _, fn := range stack {
		if match(fn) {
			return true
		}
	}
	return false
}
