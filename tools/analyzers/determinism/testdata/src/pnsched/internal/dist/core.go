package dist

import (
	"sort"
	"time"
)

// Core is the one file of this package in scope: its time comes in as
// a value.
func Core(now time.Time, m map[int]string) []string {
	_ = time.Since(now) // want `call to time\.Since in deterministic package`
	var ids []int
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var names []string
	for _, name := range m { // want `range over map m in deterministic package: the body appends to names which is never sorted`
		names = append(names, name)
	}
	return names
}
