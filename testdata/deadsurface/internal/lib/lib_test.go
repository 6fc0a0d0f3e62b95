package lib

import "reflect"

func hits() int { return Tally().Hits }

func snapFields() int { return reflect.TypeOf(Take()).NumField() }
