package accel

import (
	"reflect"
	"testing"

	"nvwa/internal/pipeline"
	"nvwa/internal/su"
)

// hashExempt lists the Options fields hashOptions deliberately leaves
// out, each with the reason a checkpoint may restore across a change
// to it.
var hashExempt = map[string]string{
	"Memo":     "pure functional cache: replayed Reports are byte-identical to live ones",
	"Obs":      "observation never changes the schedule",
	"Faults":   "bound separately by the checkpoint's PlanHash",
	"Watchdog": "a run budget: an abort checkpoint restores under a larger one",
	"OnAbort":  "a hook that must not mutate the system",
}

// hashNonNil supplies a non-nil value for each interface field that
// hashOptions covers by presence.
var hashNonNil = map[string]any{
	"Seeder": su.Seeding((*pipeline.Aligner)(nil)),
}

// TestOptionsHashCoversEveryField makes the hash decision explicit for
// every Options field: a field is either on hashExempt with a reason,
// or perturbing it — each scalar leaf of a nested struct, each field
// of a slice element, and the slice's length — changes hashOptions.
// A new field that is neither fails here instead of letting a
// checkpoint silently restore under a different configuration.
func TestOptionsHashCoversEveryField(t *testing.T) {
	o := NvWaOptions()
	base := hashOptions(&o)
	v := reflect.ValueOf(&o).Elem()
	typ := v.Type()
	for name := range hashExempt {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("hashExempt names %q, which is not an Options field", name)
		}
	}
	// check perturbs one leaf, requires the hash to move, and restores
	// the leaf (requiring the hash to return).
	check := func(path string, leaf reflect.Value, perturb func()) {
		t.Helper()
		saved := reflect.New(leaf.Type()).Elem()
		saved.Set(leaf)
		perturb()
		if hashOptions(&o) == base {
			t.Errorf("Options.%s: perturbing it leaves hashOptions unchanged; hash it or add it to hashExempt with a reason", path)
		}
		leaf.Set(saved)
		if hashOptions(&o) != base {
			t.Fatalf("Options.%s: hash did not return after restoring the field", path)
		}
	}
	var walk func(path string, f reflect.Value)
	walk = func(path string, f reflect.Value) {
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			check(path, f, func() { f.SetInt(f.Int() + 1) })
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			check(path, f, func() { f.SetUint(f.Uint() + 1) })
		case reflect.Float32, reflect.Float64:
			check(path, f, func() { f.SetFloat(f.Float() + 0.5) })
		case reflect.Bool:
			check(path, f, func() { f.SetBool(!f.Bool()) })
		case reflect.Struct:
			for i := 0; i < f.NumField(); i++ {
				walk(path+"."+f.Type().Field(i).Name, f.Field(i))
			}
		case reflect.Slice:
			if f.Len() == 0 {
				t.Errorf("Options.%s: empty in NvWaOptions, cannot perturb its elements", path)
				return
			}
			check(path+" (length)", f, func() { f.Set(reflect.Append(f, f.Index(0))) })
			walk(path+"[0]", f.Index(0))
		case reflect.Interface:
			nn, ok := hashNonNil[path]
			if !ok {
				t.Errorf("Options.%s: interface field with no perturbation; hash it or add it to hashExempt", path)
				return
			}
			check(path, f, func() { f.Set(reflect.ValueOf(nn)) })
		default:
			t.Errorf("Options.%s: %s field cannot be perturbed; hash it or add it to hashExempt", path, f.Kind())
		}
	}
	for i := 0; i < v.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := hashExempt[name]; ok {
			continue
		}
		walk(name, v.Field(i))
	}
}
