// Package ctxpoll is the known-bad corpus for the migrated ctxpoll pass:
// per-iteration ctx.Err() polls must be strided or the function marked
// //vgiw:coarsepoll.
package ctxpoll

import "context"

var sink uint64

// pollEvery polls on every iteration.
func pollEvery(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil { //want:ctxpoll ctx.Err() polled every loop iteration in pollEvery
			return err
		}
		sink++
	}
	return nil
}

// pollInCond polls in the loop condition, so on every iteration.
func pollInCond(ctx context.Context) {
	for ctx.Err() == nil { //want:ctxpoll ctx.Err() polled every loop iteration in pollInCond
		sink++
	}
}

// pollStrided uses the modulus idiom: silent.
func pollStrided(ctx context.Context, n int) error {
	const stride = 64
	for i := 0; i < n; i++ {
		if i%stride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		sink++
	}
	return nil
}

// pollCountdown uses the countdown idiom (an if with an init statement):
// silent.
func pollCountdown(ctx context.Context, n int) error {
	checkIn := 4096
	for i := 0; i < n; i++ {
		if checkIn--; checkIn <= 0 {
			checkIn = 4096
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		sink++
	}
	return nil
}

// pollOutsideLoop polls once, in no loop: silent.
func pollOutsideLoop(ctx context.Context) error {
	return ctx.Err()
}

// pollCoarse is marked: each iteration is a whole coarse work item, and
// the marker is genuinely used (strict mode must not flag it).
//
//vgiw:coarsepoll
func pollCoarse(ctx context.Context, items []func()) error {
	for _, it := range items {
		if err := ctx.Err(); err != nil {
			return err
		}
		it()
	}
	return nil
}
