// Package droppederrfix exercises the droppederr rule: error returns
// silently discarded in expression, defer and go statements are flagged;
// explicit discards, console output and infallible writers are exempt.
package droppederrfix

import (
	"bufio"
	"fmt"
	"os"
	"strings"
)

func removeTemp(path string) {
	os.Remove(path) // WANT droppederr
}

func deferredClose(f *os.File) {
	defer f.Close() // WANT droppederr
}

func fireAndForget(f *os.File) {
	go f.Sync() // WANT droppederr
}

func explicitDiscard(path string) {
	_ = os.Remove(path) // exempt: explicit discard
}

func console(n int) {
	fmt.Println(n)                      // exempt: console output
	fmt.Fprintf(os.Stderr, "n=%d\n", n) // exempt: stderr
}

func builder(parts []string) string {
	var b strings.Builder
	for _, p := range parts {
		fmt.Fprintf(&b, "%s,", p) // exempt: strings.Builder never fails
	}
	return b.String()
}

func buffered(f *os.File) {
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "header") // exempt: bufio keeps the error sticky...
	w.Flush()                 // WANT droppederr
}

func deferredClosureDiscard(f *os.File) {
	defer func() { _ = f.Close() }() // exempt: the approved deferred-discard idiom
}

// closeChecked is a deferred-close helper: the close error lands in the
// caller's named return instead of being dropped.
func closeChecked(errp *error, f *os.File) {
	if cerr := f.Close(); *errp == nil {
		*errp = cerr
	}
}

func deferredCheckedClose(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer closeChecked(&err, f) // exempt: the helper returns nothing and checks inside
	_, err = f.WriteString("data\n")
	return err
}
