module nvmetro/bench

go 1.24

require nvmetro v0.0.0

replace nvmetro => ../
