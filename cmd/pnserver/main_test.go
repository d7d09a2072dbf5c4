package main

import (
	"strings"
	"testing"
)

// TestModeConflict checks that a flag the chosen serving mode would
// silently ignore is refused by name, and that the flags of the chosen
// mode and the shared ones pass.
func TestModeConflict(t *testing.T) {
	for _, c := range []struct {
		name string
		jobs bool
		set  []string
		want string // substring of the error; "" means accepted
	}{
		{"plain server, shared flags", false, []string{"listen", "admin", "quiet"}, ""},
		{"plain server, its own flags", false, []string{"tasks", "generations", "islands", "seed"}, ""},
		{"dispatcher, shared flags", true, []string{"jobs", "listen", "admin", "quiet"}, ""},
		{"dispatcher, its own flags", true, []string{"jobs", "journal", "policy", "weights", "max-active", "retry-budget"}, ""},
		{"journal without -jobs", false, []string{"journal", "listen"}, "-journal is only read by the job dispatcher"},
		{"policy without -jobs", false, []string{"listen", "policy"}, "-policy is only read"},
		{"weights without -jobs", false, []string{"weights"}, "-weights is only read"},
		{"max-active without -jobs", false, []string{"max-active"}, "-max-active is only read"},
		{"retry-budget without -jobs", false, []string{"retry-budget"}, "-retry-budget is only read"},
		{"tasks with -jobs", true, []string{"jobs", "tasks"}, "-tasks is not read with -jobs"},
		{"workload with -jobs", true, []string{"jobs", "workload"}, "-workload is not read"},
		{"generations with -jobs", true, []string{"generations", "jobs"}, "-generations is not read"},
		{"islands with -jobs", true, []string{"islands", "jobs"}, "-islands is not read"},
		{"seed with -jobs", true, []string{"jobs", "seed"}, "-seed is not read"},
	} {
		err := modeConflict(c.jobs, c.set)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected with %q", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
