// Command sim stands in for a command, which wires the wall-clock
// plane in.
package main

import (
	"example.com/obsplanefix/internal/obs/profile"
	"example.com/obsplanefix/internal/obscli"
)

func main() {
	stop := obscli.Start()
	defer stop()
	done := profile.Phase()
	done()
}
