module stash/benchmark

go 1.22

require stash v0.0.0

replace stash => ../
