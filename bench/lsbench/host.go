package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// hostInfo is stamped into every result file, so that a number can be
// traced to the machine and the commit it came from.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // what the children run with
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	GitDirty   bool   `json:"git_dirty"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	// TmpFS is the filesystem under the directory cluster-durable's
	// journal and checkpoint files land on: fsync on tmpfs is free.
	TmpDir string `json:"tmp_dir"`
	TmpFS  string `json:"tmp_fs"`
}

// childProcs is the GOMAXPROCS every child runs with: at most two
// compute goroutines exist per workload.
func childProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func readHost(root, tmpDir string) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: childProcs(),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown",
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		CPUModel:   cpuModel(),
		TmpDir:     tmpDir,
		TmpFS:      fsType(tmpDir),
	}
	// Outside a git checkout (the driver's copy) the commit stays unknown.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
		status, _ := exec.Command("git", "-C", root, "status", "--porcelain").Output()
		h.GitDirty = len(strings.TrimSpace(string(status))) > 0
	}
	return h
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xEF53: "ext4", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0x65735546: "fuse",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
