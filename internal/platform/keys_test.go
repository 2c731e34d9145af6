package platform

import (
	"strings"
	"testing"
)

// FuzzParsePlatform drives ParseSpec with arbitrary text, as the files
// given to mpsocsim -config and -bisect reach it. Every input either fails
// to parse or yields a spec Build assembles without panicking or
// erroring. The seed corpus under testdata/fuzz/FuzzParsePlatform holds the
// configs the parser tests and the CI bisect step use, and one setting
// every key.
func FuzzParsePlatform(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParseSpec(strings.NewReader(text))
		if err != nil {
			return
		}
		if _, err := Build(spec); err != nil {
			t.Fatalf("parsed spec %s does not build: %v", spec.Name(), err)
		}
	})
}
