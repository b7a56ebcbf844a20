package core_test

import (
	"fmt"
	"testing"

	"icb/internal/core"
	"icb/internal/progs"
	"icb/internal/progs/ape"
	"icb/internal/progs/bluetooth"
	"icb/internal/progs/dryad"
	"icb/internal/progs/fsmodel"
	"icb/internal/progs/wsq"
	"icb/internal/sched"
)

// orderDigest hashes every scheduling decision of a search, in the order
// the search made them: the bound each execution ran under, the step and
// the chosen thread. Steps rise strictly within an execution, so the
// execution boundaries are implied. The benchmark programs make no data
// choices, so the thread decisions are the whole schedule of each
// execution. It rides the coverage hook, which costs less than recording
// every execution's trace.
type orderDigest struct{ h uint64 }

// fnvOffset and fnvPrime are the 64-bit FNV-1a parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// RecordPoint implements core.PointRecorder.
func (d *orderDigest) RecordPoint(bound int, pi sched.PointInfo) {
	for _, v := range [...]int{bound, pi.Step, int(pi.Chosen)} {
		d.h ^= uint64(v)
		d.h *= fnvPrime
	}
}

// orderPin is one search's execution count and decision digest.
type orderPin struct {
	executions int
	digest     uint64
}

// orderCase is one pinned search: a benchmark program searched at a bound
// under one configuration.
type orderCase struct {
	name  string
	prog  sched.Program
	opt   core.Options
	stop  bool
	bound int
}

// orderCases are the five correct benchmarks drained to bound 2 (Dryad to
// bound 1 with the work-item table alone, else to bound 0) and all 14
// seeded bug variants searched without a bound to their first bug, each
// plain, with the work-item table, with BPOR, and with both.
func orderCases() []orderCase {
	var cases []orderCase
	for _, cfg := range []struct {
		name             string
		stateCache, bpor bool
	}{{"plain", false, false}, {"cache", true, false}, {"bpor", false, true}, {"bpor+cache", true, true}} {
		opt := core.Options{CheckRaces: true, StateCache: cfg.stateCache, BPOR: cfg.bpor}
		for _, b := range []*progs.Benchmark{bluetooth.Benchmark(), fsmodel.Benchmark(), wsq.Benchmark(), ape.Benchmark(), dryad.Benchmark()} {
			bound := 2
			if b.Name == "Dryad Channels" {
				// Uncached, Dryad's bound-1 drain alone would cost 1.6 s.
				bound = 0
				if cfg.stateCache && !cfg.bpor {
					bound = 1
				}
			}
			cases = append(cases, orderCase{name: fmt.Sprintf("%s/%s@%d", cfg.name, b.Name, bound), prog: b.Correct, opt: opt, bound: bound})
			for _, bug := range b.Bugs {
				cases = append(cases, orderCase{name: fmt.Sprintf("%s/%s/%s", cfg.name, b.Name, bug.ID), prog: bug.Program, opt: opt, stop: true, bound: -1})
			}
		}
	}
	return cases
}

// orderPins are the execution counts and decision digests of orderCases,
// taken from the sequential drain before the one-worker work-stealing loop
// replaced it.
var orderPins = map[string]orderPin{
	"plain/Bluetooth@2":                             {1711, 0xc85a62cc492f2dce},
	"plain/Bluetooth/stop-window":                   {21, 0x3049d74c529cd7d},
	"plain/File System Model@2":                     {3735, 0x264308e68f763e0c},
	"plain/File System Model/lockless-alloc":        {1, 0x7f7483af21b0e25e},
	"plain/Work Stealing Queue@2":                   {336, 0x90d1ce5d0fe1f6f5},
	"plain/Work Stealing Queue/pop-unreserved-read": {10, 0xba838f9f821d361a},
	"plain/Work Stealing Queue/steal-unlocked":      {46, 0x73ee9f40f92772a},
	"plain/Work Stealing Queue/steal-late-commit":   {65, 0x2d4ddd4ba273e6fe},
	"plain/APE@2":                                   {631, 0x3ac32f62122398e3},
	"plain/APE/shutdown-miscount":                   {1, 0x1289dce49683c778},
	"plain/APE/lost-wakeup":                         {1, 0xa3234ec1925bf026},
	"plain/APE/completion-window":                   {27, 0xfcb78ba6058dd2b4},
	"plain/APE/activity-pointer":                    {292, 0x86a79f65cb7cac81},
	"plain/Dryad Channels@0":                        {304, 0x5523ef44f5f437d},
	"plain/Dryad Channels/close-no-wait":            {1, 0xee04b4b340d9e8d8},
	"plain/Dryad Channels/alert-window":             {1347, 0x50f5ba62b4170b29},
	"plain/Dryad Channels/stats-lost-update":        {1337, 0x48fa8bcdcd126ac},
	"plain/Dryad Channels/handoff-lost-decrement":   {1400, 0xe77dc1004c6492ee},
	"plain/Dryad Channels/lock-inversion":           {1311, 0x5d77a4f0a78f4880},
	"cache/Bluetooth@2":                             {1158, 0x6efa6b6887f4c2c5},
	"cache/Bluetooth/stop-window":                   {18, 0xc97669bea8b32af6},
	"cache/File System Model@2":                     {717, 0x985100c0601794e3},
	"cache/File System Model/lockless-alloc":        {1, 0x7f7483af21b0e25e},
	"cache/Work Stealing Queue@2":                   {336, 0x89fd1ac32410c15d},
	"cache/Work Stealing Queue/pop-unreserved-read": {10, 0xba838f9f821d361a},
	"cache/Work Stealing Queue/steal-unlocked":      {46, 0x6e81c059b27592d7},
	"cache/Work Stealing Queue/steal-late-commit":   {65, 0x1391f018ea78a64a},
	"cache/APE@2":                                   {326, 0xa51e72324be0e3d6},
	"cache/APE/shutdown-miscount":                   {1, 0x1289dce49683c778},
	"cache/APE/lost-wakeup":                         {1, 0xa3234ec1925bf026},
	"cache/APE/completion-window":                   {22, 0xdfae01a0590403fd},
	"cache/APE/activity-pointer":                    {142, 0x63270dd42e8ea687},
	"cache/Dryad Channels@1":                        {1640, 0x35b4c69d19459cea},
	"cache/Dryad Channels/close-no-wait":            {1, 0xee04b4b340d9e8d8},
	"cache/Dryad Channels/alert-window":             {271, 0xa0231b0374f23e4e},
	"cache/Dryad Channels/stats-lost-update":        {262, 0x8596b055de7f44de},
	"cache/Dryad Channels/handoff-lost-decrement":   {300, 0x3eee646d87347999},
	"cache/Dryad Channels/lock-inversion":           {248, 0x8fa0672ddbd298b6},
	"bpor/Bluetooth@2":                              {1319, 0x3538198690c98d26},
	"bpor/Bluetooth/stop-window":                    {19, 0xb8a5fe7aecb27be8},
	"bpor/File System Model@2":                      {854, 0xf16df96ce383eeae},
	"bpor/File System Model/lockless-alloc":         {1, 0x7f7483af21b0e25e},
	"bpor/Work Stealing Queue@2":                    {336, 0x90d1ce5d0fe1f6f5},
	"bpor/Work Stealing Queue/pop-unreserved-read":  {10, 0xba838f9f821d361a},
	"bpor/Work Stealing Queue/steal-unlocked":       {44, 0x4ba6cbcadfc3737f},
	"bpor/Work Stealing Queue/steal-late-commit":    {65, 0x2d4ddd4ba273e6fe},
	"bpor/APE@2":                                         {515, 0x82644b37191b41ef},
	"bpor/APE/shutdown-miscount":                         {1, 0x1289dce49683c778},
	"bpor/APE/lost-wakeup":                               {1, 0xa3234ec1925bf026},
	"bpor/APE/completion-window":                         {27, 0xdbd1f84190bddc10},
	"bpor/APE/activity-pointer":                          {272, 0x144b9183e0e8a070},
	"bpor/Dryad Channels@0":                              {268, 0x817e0b6bf098e5b3},
	"bpor/Dryad Channels/close-no-wait":                  {1, 0xee04b4b340d9e8d8},
	"bpor/Dryad Channels/alert-window":                   {1193, 0x1b7dd9305bde0d35},
	"bpor/Dryad Channels/stats-lost-update":              {1184, 0x844abcf0efdb94dd},
	"bpor/Dryad Channels/handoff-lost-decrement":         {1238, 0xb3f35538b9483f80},
	"bpor/Dryad Channels/lock-inversion":                 {1158, 0xea1c351b1f992355},
	"bpor+cache/Bluetooth@2":                             {828, 0xbd7d6c05fc77312b},
	"bpor+cache/Bluetooth/stop-window":                   {17, 0xec80f339114e4cc5},
	"bpor+cache/File System Model@2":                     {147, 0x9d893e3c10830d16},
	"bpor+cache/File System Model/lockless-alloc":        {1, 0x7f7483af21b0e25e},
	"bpor+cache/Work Stealing Queue@2":                   {336, 0x89fd1ac32410c15d},
	"bpor+cache/Work Stealing Queue/pop-unreserved-read": {10, 0xba838f9f821d361a},
	"bpor+cache/Work Stealing Queue/steal-unlocked":      {44, 0xcc65db4985f9a742},
	"bpor+cache/Work Stealing Queue/steal-late-commit":   {65, 0x1391f018ea78a64a},
	"bpor+cache/APE@2":                                   {212, 0xc7d209551d973a03},
	"bpor+cache/APE/shutdown-miscount":                   {1, 0x1289dce49683c778},
	"bpor+cache/APE/lost-wakeup":                         {1, 0xa3234ec1925bf026},
	"bpor+cache/APE/completion-window":                   {22, 0x872519230f2ad10a},
	"bpor+cache/APE/activity-pointer":                    {108, 0xe2b18eca0b572730},
	"bpor+cache/Dryad Channels@0":                        {49, 0xed69909f3bf36aea},
	"bpor+cache/Dryad Channels/close-no-wait":            {1, 0xee04b4b340d9e8d8},
	"bpor+cache/Dryad Channels/alert-window":             {217, 0x6609b2264cb2a5a6},
	"bpor+cache/Dryad Channels/stats-lost-update":        {209, 0x9eed677883f70c14},
	"bpor+cache/Dryad Channels/handoff-lost-decrement":   {239, 0xeb7359f72073d4b9},
	"bpor+cache/Dryad Channels/lock-inversion":           {193, 0x4803b115bf65a9af},
}

// TestExecutionOrderPins pins the order in which one worker explores: a
// bound's seeds oldest first, each seed's subtree last-in-first-out. A
// changed digest means some execution ran earlier or later than before,
// which moves first sightings, cache and BPOR pruning, and checkpoint
// contents even when the totals agree.
func TestExecutionOrderPins(t *testing.T) {
	for _, tc := range orderCases() {
		d := &orderDigest{h: fnvOffset}
		opt := tc.opt
		opt.MaxPreemptions = tc.bound
		opt.StopOnFirstBug = tc.stop
		opt.Coverage = d
		res := core.Explore(tc.prog, core.ICB{}, opt)
		got := orderPin{res.Executions, d.h}
		if want, ok := orderPins[tc.name]; !ok || got != want {
			t.Errorf("%q: {%d, %#x}, want %+v", tc.name, got.executions, got.digest, want)
		}
	}
}
