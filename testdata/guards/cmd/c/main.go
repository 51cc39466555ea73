// Command c is the guard fixtures' only caller.
package main

import (
	"fmt"

	"nvwa"
	"nvwa/internal/a"
)

func main() {
	var o a.Other
	o.Run()
	fmt.Println(o.Shared)
	a.Drive(a.Job{})
	c := a.DefaultConf()
	c.Set = 4
	fmt.Println(c, nvwa.Conf{Alias: 5}, nvwa.Thing{}, a.Engine{})
}
