// Package smoothing is a layering-fixture stub.
package smoothing

// V anchors the package so blank imports are unnecessary.
var V int
