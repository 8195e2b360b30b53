package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask: room for 1024 CPUs.
type cpuMask [1024 / 64]uint64

// affinity gets or sets the CPU mask of one thread; tid 0 is the caller.
func affinity(call uintptr, tid int, m *cpuMask) bool {
	_, _, errno := syscall.RawSyscall(call, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return errno == 0
}

// highestCPU is the mask of the highest-numbered CPU in m (interrupts land on
// the lowest).
func highestCPU(m *cpuMask) (one cpuMask) {
	for cpu := len(m)*64 - 1; cpu >= 0; cpu-- {
		if m[cpu/64]&(1<<(cpu%64)) != 0 {
			one[cpu/64] = 1 << (cpu % 64)
			break
		}
	}
	return one
}

// pinThread wires the calling goroutine to its OS thread and that thread to
// one CPU, the highest-numbered one it may use, until the returned function
// is called. The single-threaded engine workloads measure on a pinned
// thread: on the 2-vCPU reference box a thread left to wander between vCPUs
// loses its caches at every move, which doubled the run-to-run spread of
// sim_khz and op_p95_ms. Threads the runtime starts itself (the collector's
// workers) are not pinned. If the kernel refuses, the thread stays unpinned:
// the numbers are noisier, not wrong.
func pinThread() (unpin func()) {
	runtime.LockOSThread()
	var old cpuMask
	if !affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &old) {
		return runtime.UnlockOSThread
	}
	one := highestCPU(&old)
	affinity(syscall.SYS_SCHED_SETAFFINITY, 0, &one)
	return func() {
		affinity(syscall.SYS_SCHED_SETAFFINITY, 0, &old)
		runtime.UnlockOSThread()
	}
}

// confineProcess gives the whole process one CPU — the service workloads'
// form of pinThread: GOMAXPROCS 1, and every thread the process has (threads
// started later inherit it) moved to the highest-numbered CPU — until the
// returned function is called. Clients, listeners, handlers, router and
// collector then take turns on one vCPU under the Go scheduler, and no
// request waits for the host to run a second, idle vCPU: on a shared host
// that wait, not the program, was most of what two busy vCPUs measured
// (README.md, "How a run is built"). If the kernel refuses, the threads stay
// where they were.
func confineProcess() (release func()) {
	procs := runtime.GOMAXPROCS(1)
	var old cpuMask // this thread's mask is every thread's: pinThread restores what it changes
	if !affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &old) {
		return func() { runtime.GOMAXPROCS(procs) }
	}
	one := highestCPU(&old)
	setAll := func(m *cpuMask) {
		tasks, _ := os.ReadDir("/proc/self/task")
		for _, t := range tasks {
			if tid, err := strconv.Atoi(t.Name()); err == nil {
				affinity(syscall.SYS_SCHED_SETAFFINITY, tid, m) // a thread may have exited since the listing
			}
		}
	}
	setAll(&one)
	return func() {
		setAll(&old)
		runtime.GOMAXPROCS(procs)
	}
}
