package policy

import (
	"os"
	"testing"

	"repro/internal/leakcheck"
)

func TestMain(m *testing.M) { os.Exit(leakcheck.Run(m)) }
