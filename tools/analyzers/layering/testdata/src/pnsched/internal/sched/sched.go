// Package sched is a layering-fixture stub.
package sched

// V anchors the package so blank imports are unnecessary.
var V int
