package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runChild runs one workload in a child process of this same binary, so
// that its resident high-water mark and GC state are its own, and parses
// its first line (the environment block) and its last (the result). The
// child's report goes to report when non-nil.
func runChild(workload string, seed int64, seconds float64, trace int, dir string, smoke bool, report *os.File) (result, environment, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, environment{}, err
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-dir", dir,
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, environment{}, fmt.Errorf("%s: %w", workload, err)
	}
	if report != nil {
		report.Write(out.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var head struct {
		Environment environment `json:"environment"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &head); err != nil {
		return result{}, environment{}, fmt.Errorf("%s: environment line: %w", workload, err)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, environment{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, head.Environment, nil
}

// runAll runs every workload, one child each, and returns the exit code.
func runAll(seed int64, seconds float64, trace int, dir string, smoke bool) int {
	code := 0
	for _, w := range workloads {
		res, _, err := runChild(w.name, seed, seconds, trace, dir, smoke, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}
