//go:build !linux

package main

import "syscall"

// stopHandshakes is a no-op off Linux, where the drain can answer only the
// connections queued when it looks: one that completes its handshake in
// the instant before the socket closes may still be reset.
func stopHandshakes(syscall.Conn) {}
