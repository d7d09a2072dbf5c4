package pnsched

import "testing"

func TestDepth(t *testing.T) { Start(WithDepth(2)) }
