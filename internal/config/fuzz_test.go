package config

import (
	"testing"

	"mpsocsim/internal/platform"
)

// FuzzParsePlatform drives ParsePlatform with arbitrary text, as the files
// given to mpsocsim -config and -bisect reach it. Every input either fails
// to parse or yields a spec platform.Build assembles without panicking or
// erroring. The seed corpus under testdata/fuzz/FuzzParsePlatform holds the
// configs the parser tests and the CI bisect step use, and one setting
// every key.
func FuzzParsePlatform(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParsePlatformString(text)
		if err != nil {
			return
		}
		if _, err := platform.Build(spec); err != nil {
			t.Fatalf("parsed spec %s does not build: %v", spec.Name(), err)
		}
	})
}
