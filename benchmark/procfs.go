package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// userHZ is the unit of /proc/<pid>/stat CPU times; Linux fixes it at
// 100 for user space.
const userHZ = 100

// procCPU is a process's user+sys CPU time so far, all threads.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	var ticks int64
	for _, x := range f[11:13] {
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// procFields reads "key: value ..." lines from a /proc file and returns
// the first number of each wanted key.
func procFields(path string, keys ...string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		for _, want := range keys {
			if k == want {
				fs := strings.Fields(v)
				if len(fs) == 0 {
					return nil, fmt.Errorf("%s: empty %s", path, k)
				}
				n, err := strconv.ParseFloat(fs[0], 64)
				if err != nil {
					return nil, fmt.Errorf("%s: %s: %w", path, k, err)
				}
				out[k] = n
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, k := range keys {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("%s: no %s", path, k)
		}
	}
	return out, nil
}

// procIO is a process's write_bytes (bytes sent toward storage) and
// syscw (write system calls, sockets included).
func procIO(pid int) (writeBytes, writeCalls float64, err error) {
	m, err := procFields(fmt.Sprintf("/proc/%d/io", pid), "write_bytes", "syscw")
	if err != nil {
		return 0, 0, err
	}
	return m["write_bytes"], m["syscw"], nil
}

// procPeakRSSMiB is a process's resident-set high-water mark.
func procPeakRSSMiB(pid int) (float64, error) {
	m, err := procFields(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	if err != nil {
		return 0, err
	}
	return m["VmHWM"] / 1024, nil // kB
}
