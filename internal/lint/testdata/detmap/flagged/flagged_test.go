package flagged

// unsortedInTest would be a detmap finding in a non-test file. It
// carries no want: the loader type-checks only GoFiles, so the
// analyzers never see it.
func unsortedInTest(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
