// Command sim stands in for a command, which rngpurity exempts: it
// times its run and may draw ad-hoc randomness outside the study.
package main

import (
	"fmt"
	"math/rand"
	"time"
)

func main() {
	start := time.Now()
	fmt.Println(rand.Intn(100), time.Since(start))
}
