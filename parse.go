package dcl1

import "dcl1sim/internal/gpu"

// ParseDesign parses the paper's design names used throughout the CLI tools
// (Baseline, Pr40, Sh40+C10+Boost, CDXBar+2xNoC1, Sh40+C10+M4+G128, ...).
// Its inverse is Design.Name.
func ParseDesign(s string) (Design, error) { return gpu.ParseDesign(s) }
