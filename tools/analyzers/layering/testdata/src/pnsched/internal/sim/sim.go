// Package sim is a layering-fixture stub.
package sim

// V anchors the package so blank imports are unnecessary.
var V int
