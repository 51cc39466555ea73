// Package a declares one case of each guard rule.
package a

// Other.Run is reached: cmd/c calls it.
type Other struct{ Shared int }

func (Other) Run() {}

// Engine.Run shares its name with the reached Other.Run, and
// Engine.Shared with the field Other.Shared that cmd/c reads: nothing
// reaches either.
type Engine struct{}

func (Engine) Run()        {}
func (Engine) Shared() int { return 0 }

// Task is dispatched by Drive, so Job.Fire is reached through it.
type Task interface{ Fire() }

func Drive(t Task) { t.Fire() }

type Job struct{}

func (Job) Fire() {}

// Thing.Facade is reached through nvwa.Thing, the alias that
// re-exports Thing.
type Thing struct{}

func (Thing) Facade() {}

// helper is an unexported function nothing calls.
func helper() {}

// Conf is a setter-guard struct: cmd/c sets Set by assignment and
// Alias through the facade's alias; only DefaultConf sets OnlyDefault.
type Conf struct {
	Set, Alias, OnlyDefault int
}

func DefaultConf() Conf { return Conf{Set: 1, Alias: 2, OnlyDefault: 3} }
