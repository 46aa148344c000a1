package core

import "hornet/internal/config"

// GoldenConfigs returns the configurations TestSummaryGolden pins, for the
// external test package.
func GoldenConfigs() []config.Config {
	var out []config.Config
	for _, c := range goldenCases() {
		out = append(out, c.cfg)
	}
	return out
}
