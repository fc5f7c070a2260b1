// Command exportguard is the fixture module of the root package's
// internal-export check; nothing builds or runs it.
package main

import (
	"fmt"

	"exportguard/internal/lib"
)

func main() {
	var t lib.T
	fmt.Println(lib.Used(), t)
}
