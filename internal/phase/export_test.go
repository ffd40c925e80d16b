package phase

import (
	"pas2p/internal/logical"
	"pas2p/internal/trace"
)

// ReferenceTable runs the frozen reference path — the in-core logical
// order, the full-scan seed matcher and BuildTable — for tests outside
// the package.
func ReferenceTable(tr *trace.Trace, warm int) (*Table, error) {
	l, err := logical.Order(tr)
	if err != nil {
		return nil, err
	}
	cfg := DefaultConfig()
	cfg.naiveMatch = true
	an, err := Extract(l, cfg)
	if err != nil {
		return nil, err
	}
	return an.BuildTable(warm)
}
