package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Every run pins these and records them, so two result lines are
// comparable only when the fields agree.
const (
	pinnedGOMAXPROCS = 2
	pinnedGOGC       = 100 // the Go default, fixed so a GOGC in the caller's environment cannot move peak_rss_mb
)

// environment is the block printed with every result.
type environment struct {
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       int    `json:"gogc"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	StoreDir   string `json:"store_dir"`
	StoreFS    string `json:"store_fs"`
	// RSSReset says whether the kernel lets the process reset its
	// resident high-water mark; where it does not, peak_rss_mb covers the
	// set-up too and is another metric under the same name.
	RSSReset bool     `json:"rss_reset"`
	Warnings []string `json:"warnings,omitempty"`
}

// pinRuntime applies the common settings of every workload.
func pinRuntime() {
	runtime.GOMAXPROCS(pinnedGOMAXPROCS)
	debug.SetGCPercent(pinnedGOGC)
}

func readEnvironment(seed int64, storeDir string) environment {
	env := environment{
		Commit:     vcsRevision(),
		Seed:       seed,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       pinnedGOGC,
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Kernel:     kernelRelease(),
		StoreDir:   storeDir,
		StoreFS:    fsName(storeDir),
		RSSReset:   resetPeakRSS() == nil,
	}
	if !env.RSSReset {
		env.Warnings = append(env.Warnings,
			"/proc/self/clear_refs REFUSES TO RESET VmHWM: peak_rss_mb covers the set-up as well as the measured phase and does not compare with runs where it is reset")
	}
	if env.StoreFS == "tmpfs" || env.StoreFS == "ramfs" {
		env.Warnings = append(env.Warnings,
			"STORE DIRECTORY IS ON "+strings.ToUpper(env.StoreFS)+": fsync is free here, durable-fleet numbers do not describe a disk")
	}
	if env.NProc < pinnedGOMAXPROCS {
		env.Warnings = append(env.Warnings,
			fmt.Sprintf("ONLY %d CPU FOR GOMAXPROCS=%d: clients, drain workers and the kernel pool time-share one core", env.NProc, pinnedGOMAXPROCS))
	}
	return env
}

// vcsRevision is the commit the toolchain stamped into the binary; a
// checkout that is not a git repository builds without one.
func vcsRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// fsName names the filesystem holding dir from its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0x858458f6:
		return "ramfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x2fc12fc1:
		return "zfs"
	default:
		return fmt.Sprintf("magic-%#x", uint32(st.Type))
	}
}

// cpuTime is the process's user+system CPU so far. A caller counts an
// error as a failed operation: a zero would read as an improvement.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMB is VmHWM, the process's resident high-water mark, in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

// settleFS commits the filesystem journal with sync(2). On ext4, inodes
// freed by a mass unlink cannot be reused until the transaction that
// freed them commits, and until then every file creation scans for a
// free inode: measured on the contract box at 400 µs a create for up to
// 5 s after a deployment's directory was removed, against 10 µs after a
// commit. The harness removes a deployment after every set-up and at the
// end of every run, so it settles the filesystem each time; otherwise
// the next phase — or the next run — inherits a mode that has nothing to
// do with the program.
func settleFS() { syscall.Sync() }

// resetPeakRSS sets VmHWM back to the current resident size (Linux 4.0
// and later: writing 5 to clear_refs). readEnvironment tries it once at
// start-up and records and warns when the kernel refuses.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
