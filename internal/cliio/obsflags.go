package cliio

import (
	"flag"

	"treecode/internal/obs"
)

// ObsFlags is the -obsjson flag every driver shares (export the run's obs
// trace as JSON, the format cmd/obsreport renders), together with the
// collector lifecycle around it, so all drivers export a trace the same
// way. Usage:
//
//	ob := cliio.ObsFlagVars()
//	flag.Parse()
//	col := ob.Start()
//	...
//	if err := ob.Finish(); err != nil { ... }
type ObsFlags struct {
	JSONPath string // -obsjson destination ("" disables, "-" is stdout)
	// Force enables the collector even without -obsjson — for drivers
	// with their own switch (analyze's -obs) that print the census
	// without exporting it.
	Force bool

	col *obs.Collector
}

// ObsFlagVars registers -obsjson on the default flag set and returns the
// holder to Start after flag.Parse.
func ObsFlagVars() *ObsFlags {
	o := &ObsFlags{}
	flag.StringVar(&o.JSONPath, "obsjson", "", "write the obs trace as JSON to FILE (- for stdout)")
	return o
}

// Start creates the collector when -obsjson (or Force) asks for one — nil
// otherwise, keeping the run uninstrumented and free.
func (o *ObsFlags) Start() *obs.Collector {
	if o.JSONPath == "" && !o.Force {
		return nil
	}
	o.col = obs.New()
	return o.col
}

// Finish writes the JSON trace when -obsjson asked for one. Safe to call
// when Start returned nil (no-op) and to call more than once (the trace is
// rewritten, capturing later activity).
func (o *ObsFlags) Finish() error {
	if o.col != nil && o.JSONPath != "" {
		return obs.WriteJSON(o.col, o.JSONPath)
	}
	return nil
}
