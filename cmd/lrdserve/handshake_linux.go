package main

import "syscall"

// stopHandshakes attaches a socket filter that drops every pure SYN (SYN
// set, ACK clear) reaching the socket, so a listening socket starts no
// further handshakes. The filter sees the TCP header, whose flags are byte
// 13. A client dialing after the drain began retransmits its SYN and then
// finds the port closed (connection refused), instead of landing in the
// accept queue just before the socket closes and being reset; the final
// ACK of a handshake already in flight still passes and completes it into
// the queue that drainQueue answers.
func stopHandshakes(sc syscall.Conn) {
	rc, err := sc.SyscallConn()
	if err != nil {
		return
	}
	dropSYN := []syscall.SockFilter{
		*syscall.LsfStmt(syscall.BPF_LD|syscall.BPF_B|syscall.BPF_ABS, 13),
		*syscall.LsfStmt(syscall.BPF_ALU|syscall.BPF_AND|syscall.BPF_K, tcpSYN|tcpACK),
		*syscall.LsfJump(syscall.BPF_JMP|syscall.BPF_JEQ|syscall.BPF_K, tcpSYN, 0, 1),
		*syscall.LsfStmt(syscall.BPF_RET|syscall.BPF_K, 0),          // drop
		*syscall.LsfStmt(syscall.BPF_RET|syscall.BPF_K, 0xffffffff), // keep whole
	}
	rc.Control(func(fd uintptr) { syscall.AttachLsf(int(fd), dropSYN) })
}

// TCP header flag bits.
const (
	tcpSYN = 0x02
	tcpACK = 0x10
)
