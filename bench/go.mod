module elephants/bench

go 1.22

require elephants v0.0.0

replace elephants => ../
