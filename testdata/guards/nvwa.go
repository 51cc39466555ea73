// Package nvwa is the guard fixtures' facade: it re-exports a.Thing
// and a.Conf by alias, as the module's nvwa.go does.
package nvwa

import "nvwa/internal/a"

type (
	// Thing is a re-exported type: its methods are reached.
	Thing = a.Thing
	// Conf is a re-exported configuration struct.
	Conf = a.Conf
)
