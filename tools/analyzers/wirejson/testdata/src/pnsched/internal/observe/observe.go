// Package observe is a wirejson fixture shaped like the real
// observe.go: the event structs are the wire payloads — their json
// tags are the event grammar — so a field added to one without a tag
// would reach every watcher under its Go name.
package observe

// BatchDecision grew a field without tagging it: flagged.
type BatchDecision struct {
	Invocation int     `json:"invocation"`
	Wall       float64 `json:"wall,omitempty"`
	Job        string  // want `exported field Job of wire struct BatchDecision lacks an explicit json tag`
}

// Dispatch is fully tagged: quiet.
type Dispatch struct {
	Proc int     `json:"proc"`
	Task int32   `json:"task"`
	At   float64 `json:"at"`
}

// Funcs carries no json tags at all: an adapter, not a payload, so its
// untagged exported fields are fine.
type Funcs struct {
	BatchDecided func(BatchDecision)
	Dispatch     func(Dispatch)
}
