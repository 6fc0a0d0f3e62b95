// Package loc counts source lines for Table I. The paper reports
// implementation sizes as evidence of the framework's ease of use; every
// row of the reproduced table is a file (or a marked part of one) that its
// own package embeds — cross-package embeds are impossible — and counts
// here.
package loc

import "strings"

// Lines counts the non-blank lines of src.
func Lines(src string) int {
	n := 0
	for _, l := range strings.Split(src, "\n") {
		if strings.TrimSpace(l) != "" {
			n++
		}
	}
	return n
}

// Split counts the non-blank lines of src before, and from, the first
// occurrence of marker. Without the marker all of src counts as before.
func Split(src, marker string) (before, from int) {
	i := strings.Index(src, marker)
	if i < 0 {
		return Lines(src), 0
	}
	return Lines(src[:i]), Lines(src[i:])
}
